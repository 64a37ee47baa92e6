"""Seeded benchmark of metricext.

    python3 bench/run.py                                   # every workload, one process each
    python3 bench/run.py --workload path-fleet --seed 3    # one workload in this process
    python3 bench/run.py --workload big-tree --trace 1     # per-layer spans and counts
    python3 bench/run.py --self-test                       # work counts repeat for a seed

Run from the repository root.  A workload run sets up its complexes at
least three times (setup_s is the median), builds its inputs from --seed, then runs
whole passes over those inputs until --seconds have passed.  Every query of
a pass runs under a per-query SIGALRM cap in this one process.  After the
timed phase every output is verified against the oracles and pool.json.
The last line printed is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json, end-to-end ones with --trace 0 and
per-layer ones with --trace 1.  The lines before it print every figure by
name and unit, including those not in BENCHMARK.json (query_p95_ms,
failed_share, calibration).

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
  path-fleet  exact l1 path queries and near-pair extension queries
  big-tree    tree_complex(2, 11): set-up, dense word table, O(V) queries, probes
  check-all   run_checks(suite="all", seed=0), the `check` command, on three
              complexes
  hard-rips   grid pairs on rips_complex(path_complex(40), 3) under a 5 s cap;
              it measures termination, so its timeouts are failures by design,
              and it is not in BENCHMARK.json

Each run re-executes itself with PYTHONHASHSEED pinned (--hash-seed), since
run_checks seeds its samplers from hash(); the value is printed.  With
--trace 1 the spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
WORKLOADS = ("path-fleet", "big-tree", "check-all", "hard-rips")
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S have passed
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
REFERENCE_CALIBRATION_MS = 25.0  # calibration loop time that reported times are scaled to
P95_MIN_SAMPLES = 200  # ten samples beyond the 95th percentile
CHILD_TIMEOUT_S = 900


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop, median of three: the machine's speed now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def normalize(seconds: float, before_ms: float, after_ms: float) -> float:
    """Scale a time to the reference speed, using calibrations on both sides of it."""
    return seconds * REFERENCE_CALIBRATION_MS / ((before_ms + after_ms) / 2.0)


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def answer(o) -> str:
    """What a query answered, in a form two passes or two runs can compare.

    A check run is compared by each check's pass and fail counts; its notes
    quote the process-wide tripwire counter, which grows from pass to pass.
    """
    v = o.value
    if o.error is not None:
        return f"error:{o.error}"
    if hasattr(v, "witness"):
        return repr(v.value)
    if isinstance(v, list):
        return ";".join(f"{r.name}:{r.passed}/{r.failed}" for r in v)
    return repr(v)


def values_digest(outcomes) -> str:
    """Digest of every answer, so two runs can be compared exactly."""
    text = "\n".join(f"{o.qid}={answer(o)}" for o in sorted(outcomes, key=lambda o: o.qid))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# one workload in this process


def timed_passes(run_pass, seconds: float):
    """Whole passes until `seconds` have passed, each between two calibrations.

    Returns each pass's raw wall and normalized wall, each query's latencies
    normalized with its pass's calibrations, and the first pass's outcomes.
    Later passes must reproduce the first pass's answers; a query whose
    answer changes is returned in `unstable`.
    """
    raw: list[float] = []
    walls: list[float] = []
    latency: dict[str, list[float]] = defaultdict(list)
    first = None
    unstable: dict[str, str] = {}
    start = time.perf_counter()
    before = calibrate()
    while True:
        gc.collect()
        wall, outcomes = run_pass()
        after = calibrate()
        raw.append(wall)
        walls.append(normalize(wall, before, after))
        for o in outcomes:
            latency[o.qid].append(normalize(o.latency_s, before, after))
        before = after
        if first is None:
            first = outcomes
        else:
            for a, b in zip(first, outcomes):
                if answer(a) != answer(b):
                    unstable[a.qid] = f"pass {len(walls)} answered differently from pass 1"
        if time.perf_counter() - start >= seconds:
            break
    return raw, walls, latency, first, unstable


def timed_setups(W, spec):
    """Repeated set-ups from empty caches; raw and normalized seconds, last state."""
    raw: list[float] = []
    setups: list[float] = []
    state = None
    before = calibrate()
    while len(setups) < SETUP_REPEATS or (sum(raw) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        state = None
        W.clear_program_caches()
        gc.collect()
        t0 = time.perf_counter()
        state = W.setup(spec)
        raw.append(time.perf_counter() - t0)
        after = calibrate()
        setups.append(normalize(raw[-1], before, after))
        before = after
    return raw, setups, state


def pass_runner(W, spec, state, queries, tracer=None):
    if spec.name == "check-all":
        return lambda: W.run_check_pass(state, queries, tracer)
    return lambda: W.run_query_pass(spec, state, queries, tracer)


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W
    from tracer import Tracer

    spec = W.SPECS[args.workload]
    lines = [
        f"workload {spec.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
        f"PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}"
    ]
    metrics: dict[str, tuple[float, str]] = {}
    tracer = traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            state = W.setup(spec)
            tracer.query = "inputs"
            queries = W.make_inputs(spec, state, args.seed)
            trip0 = W.pm.tripwire_log().checks
            before = calibrate()
            traced = pass_runner(W, spec, state, queries, tracer)()
            traced_wall = normalize(traced[0], before, calibrate())
            tripwire = W.pm.tripwire_log().checks - trip0
        finally:
            tracer.uninstall()
    else:
        raw_setups, setups, state = timed_setups(W, spec)
        queries = W.make_inputs(spec, state, args.seed)

    raw_walls, walls, latency, outcomes, unstable = timed_passes(
        pass_runner(W, spec, state, queries), args.seconds
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced is not None:
        outcomes = traced[1]

    failed, info = W.verify(state, queries, outcomes)
    failed.update(unstable)
    attempted = len(outcomes)
    timeouts = sum(1 for o in outcomes if o.error and o.error.startswith("timeout"))
    skipped = sum(1 for o in outcomes if o.error and o.error.startswith("not started"))
    wrong = {k: v for k, v in failed.items() if not (v.startswith("timeout") or v.startswith("not started"))}
    completed = sum(1 for o in outcomes if o.error is None)

    per_query = sorted(statistics.median(v) for v in latency.values())
    wall_s = statistics.median(walls)
    ratio = statistics.median(w / r for w, r in zip(walls, raw_walls))
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
        metrics["wall_s"] = (wall_s, "s")
        metrics["queries_per_s"] = (completed / wall_s, "1/s")
        metrics["query_p50_ms"] = (quantile(per_query, 0.5) * 1e3, "ms")
        if len(per_query) >= P95_MIN_SAMPLES:
            metrics["query_p95_ms"] = (quantile(per_query, 0.95) * 1e3, "ms")
        metrics["failed_share"] = (len(failed) / attempted, "share")
        lines.append(
            f"  setup: {len(setups)} set-ups, raw median {statistics.median(raw_setups):.4f} s, "
            f"normalized median {metrics['setup_s'][0]:.4f} s"
        )
        lines.append(
            f"  timed: {len(walls)} passes over {attempted} queries; raw pass walls "
            + ", ".join(f"{w:.3f}" for w in raw_walls)
            + f" s; raw median {statistics.median(raw_walls):.3f} s"
        )
        lines.append(f"  latency of a query: its median over passes ({len(per_query)} samples)")
        if "query_p95_ms" not in metrics:
            lines.append(f"  query_p95_ms: not reported, {len(per_query)} samples < {P95_MIN_SAMPLES}")
    else:
        metrics.update(layer_metrics(tracer, state, W))
        metrics["pathmetric.tripwire_checks"] = (tripwire, "count")
        metrics["bench.trace_overhead_pct"] = ((traced_wall / wall_s - 1.0) * 100.0, "%")
        metrics["bench.timeouts"] = (timeouts, "count")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"trace-{spec.name}-seed{args.seed}.json"
        tracer.write(span_file)
        lines.append(
            f"  traced pass {traced_wall:.3f} s against untraced median {wall_s:.3f} s "
            f"({len(walls)} passes), normalized; {len(tracer.spans)} spans in {span_file.relative_to(ROOT)}"
        )
    metrics["bench.calibration_ms"] = (REFERENCE_CALIBRATION_MS / ratio, "ms")
    lines.append(
        f"  times are normalized to a {REFERENCE_CALIBRATION_MS} ms calibration loop; "
        f"this run's loop took {REFERENCE_CALIBRATION_MS / ratio:.2f} ms (median over passes)"
    )
    lines.append(
        f"  failed {len(failed)} of {attempted}: {timeouts} timeouts, {skipped} not started, "
        f"{len(wrong)} wrong or raised"
    )
    for qid, why in list(wrong.items())[:10]:
        lines.append(f"    {qid}: {why}")
    if info.get("ext_queries"):
        lines.append(f"  extension queries reaching the solver: {info['ext_reached_solver']} of {info['ext_queries']}")
    lines.append(f"  values_digest {values_digest(outcomes)}")
    for name, (value, unit) in sorted(metrics.items()):
        lines.append(f"  {name:<44} {value:>14.6g} {unit}")
    print("\n".join(lines))

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], (0, m["unit"]))[0], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, state, W) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced set-up and pass (input building excluded)."""
    tracer.spans = [s for s in tracer.spans if s[5] != "inputs"]
    out: dict[str, tuple[float, str]] = {}
    for name, row in tracer.layer_totals().items():
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.s"] = (row["s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    for key, n in tracer.counts.items():
        out[key] = (n, "count")
    table_bytes = sum(W.vx.word_metric(K).matrix.nbytes for K in state.complexes.values())
    out["vertexmetrics.word_table_mb"] = (table_bytes / 2**20, "MiB")
    return out


# --------------------------------------------------------------------------
# several workloads, one process each


def child(workload: str, seed: int, seconds: int, trace: int, hash_seed: int = 0):
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--hash-seed", str(hash_seed),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return lines, json.loads(lines[-1])


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        lines, result = child(workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]), flush=True)
        if not result["correct"]:
            status = 1
    return status


def work_counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def self_test(args) -> int:
    """Two traced runs per workload with one seed must do identical work.

    hard-rips compares only its timeouts and answers, because a query cut
    by its cap has done an amount of work that depends on machine speed.
    check-all is also run under a second PYTHONHASHSEED, and whether its
    counts change is reported.
    """
    status = 0
    seconds = 1
    for workload in WORKLOADS:
        runs = [child(workload, args.seed, seconds, 1) for _ in range(2)]
        digests = [next(l for l in lines if "values_digest" in l).split()[-1] for lines, _ in runs]
        counts = [work_counts(result) for _, result in runs]
        if workload == "hard-rips":
            counts = [{"bench.timeouts": c["bench.timeouts"]} for c in counts]
        diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0] if counts[0][k] != counts[1].get(k)}
        same = digests[0] == digests[1] and not diff
        status |= not same
        print(f"{workload}: answers {'identical' if digests[0] == digests[1] else 'DIFFER'}, "
              f"{len(counts[0])} work counts, {'all identical' if not diff else f'DIFFER: {diff}'}")
    base = work_counts(child("check-all", args.seed, seconds, 1, hash_seed=0)[1])
    other = work_counts(child("check-all", args.seed, seconds, 1, hash_seed=1)[1])
    key = "pathmetric.tripwire_checks"
    print(f"check-all tripwire checks: {base[key]} at PYTHONHASHSEED=0, {other[key]} at PYTHONHASHSEED=1"
          + (" (run_checks samples depend on the hash seed)" if base[key] != other[key] else ""))
    return status


# --------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="Seeded benchmark of metricext.")
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--hash-seed", type=int, default=0, help="PYTHONHASHSEED of each workload process")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("need --seed >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "metricext" / "__init__.py").is_file():
        print(f"error: no metricext sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != str(args.hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(args.hash_seed))
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
