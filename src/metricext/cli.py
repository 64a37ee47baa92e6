"""Command-line workbench.

Subcommands: validate, gen, dist, dd, gp, probe, oracle-compare, check.
JSON is the single exchange format; tables go to stdout for humans, --json
switches to machine output.  Exit codes: 0 success, 1 validation failure,
2 property-suite failure, 3 internal inconsistency, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .checks import SUITES, grid_sandwich, run_checks
from .complexes import VALUE_TOL, vertex_point
from .errors import InternalConsistencyError, MetricExtError
from .extension import (
    ExtendedMetric,
    bilinear_extension,
    double_difference_bilinear,
    double_difference_ext,
    gromov_product_ext,
)
from .fileio import (
    complex_to_dict,
    load_complex,
    metric_from_spec,
    point_from_json,
    points_from_json,
    save_complex,
    slots_from_json,
    witness_to_dict,
)
from .generators import GeneratorSpec, generate, grid_point, nested_quadruples, random_point, random_vertex
from .pathmetric import l1_path_distance, tripwire_log
from .probes import (
    dd_convergence_probe,
    dd_divergence_probe,
    decay_probe,
    equivalence_windows_check,
)
from .vertexmetrics import double_difference_vertices, gromov_product_vertices

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SUITE = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64


def _int_at_least(text: str, least: int, need: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"{need}, got {value}")
    return value


def _sample_count(text: str) -> int:
    """A --samples, --pairs or --triples value: an int of at least 1, else a usage error (exit 64)."""
    return _int_at_least(text, 1, "need at least one sample")


def _seed(text: str) -> int:
    """A --seed value: an int of at least 0, as numpy's generators take, else a usage error (exit 64)."""
    return _int_at_least(text, 0, "need a seed of at least 0")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors leave through exit code 64
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="metricext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a complex (and optional metric) file")
    p.add_argument("-c", "--complex", required=True)
    p.add_argument("-m", "--metric", default=None, help="metric file or 'word'")

    p = sub.add_parser("gen", help="generate a test complex")
    p.add_argument("-k", "--kind", required=True,
                   choices=["simplex", "path", "cycle", "tree", "rips", "random"])
    p.add_argument("-p", "--param", action="append", type=float, default=[],
                   help="numeric parameters, repeatable (e.g. -p 2 -p 3)")
    p.add_argument("--base", default=None, help="base complex file (rips only)")
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("dist", help="distance between two points")
    p.add_argument("-c", "--complex", required=True)
    p.add_argument("-m", "--metric", default="word", help="metric file or 'word'")
    p.add_argument("--kind", default="extended",
                   choices=["vertex", "bilinear", "l1path", "extended"])
    p.add_argument("-x", required=True, help="point as JSON map")
    p.add_argument("-y", required=True, help="point as JSON map")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("dd", help="double difference of four points")
    p.add_argument("-c", "--complex", required=True)
    p.add_argument("-m", "--metric", default="word")
    p.add_argument("--kind", default="extended", choices=["vertex", "bilinear", "extended"])
    p.add_argument("--points", required=True, help="JSON array of four point maps")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gp", help="Gromov product of three points")
    p.add_argument("-c", "--complex", required=True)
    p.add_argument("-m", "--metric", default="word")
    p.add_argument("--kind", default="extended", choices=["vertex", "extended"])
    p.add_argument("--points", required=True, help="JSON array of three point maps")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("probe", help="boundary probes")
    p.add_argument("mode", choices=["convergence", "divergence", "decay", "windows"])
    p.add_argument("-c", "--complex", required=True)
    p.add_argument("-m", "--metric", default="word")
    p.add_argument("--slots", default=None, help="JSON array of 4 slots (ray/point)")
    p.add_argument("--depth-max", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--samples", type=_sample_count, default=40)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--lambda-grid", default=None, help="comma-separated values")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle-compare", help="exact solver vs grid oracle")
    p.add_argument("-c", "--complex", required=True)
    p.add_argument("--samples", type=_sample_count, default=20)
    p.add_argument("--resolution", type=int, default=16, help="grid is 1/n")
    p.add_argument("--refine", action="store_true", help="also run at 1/(2n)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="run property suites")
    p.add_argument("-c", "--complex", required=True)
    p.add_argument("-m", "--metric", default="word")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--triples", type=_sample_count, default=120)
    p.add_argument("--pairs", type=_sample_count, default=80)
    p.add_argument("--json", action="store_true")

    return parser


def _emit(data: dict, as_json: bool, text: str) -> None:
    print(json.dumps(data, indent=2) if as_json else text)


def _cmd_validate(args) -> int:
    K = load_complex(args.complex)
    lines = [
        f"complex: {len(K.vertices)} vertices, {len(K.maximal_simplices)} maximal "
        f"simplices, dimension {K.dimension}"
    ]
    if args.metric is not None:
        vm = metric_from_spec(K, args.metric)
        lines.append(
            f"metric: C={vm.C:.6g} (minimal {vm.minimal_C:.6g})"
            + (f", QI constants A={vm.A:.6g}, B={vm.B:.6g}" if vm.has_qi_constants else "")
        )
    print("\n".join(lines))
    return EXIT_OK


def _cmd_gen(args) -> int:
    base = load_complex(args.base) if args.base else None
    spec = GeneratorSpec(
        kind=args.kind,
        params=tuple(args.param),
        seed=args.seed,
        base=base,
        max_dim=args.max_dim,
    )
    K = generate(spec)
    if args.out:
        save_complex(K, args.out)
        print(f"wrote {args.out}: {len(K.vertices)} vertices, "
              f"{len(K.maximal_simplices)} maximal simplices")
    else:
        print(json.dumps(complex_to_dict(K), indent=2))
    return EXIT_OK


def _cmd_dist(args) -> int:
    K = load_complex(args.complex)
    x = point_from_json(K, args.x)
    y = point_from_json(K, args.y)
    if args.kind == "l1path":
        value, witness = l1_path_distance(K, x, y)
        _emit(
            {"kind": "l1path", "value": value, "witness": witness_to_dict(witness)},
            args.json,
            f"l1path distance = {value:.12g}\nwitness: " + " -> ".join(
                "{" + ", ".join(f"{v}:{w:.4g}" for v, w in p.items) + "}"
                for p in witness.points
            ),
        )
        return EXIT_OK
    vm = metric_from_spec(K, args.metric)
    if args.kind == "vertex":
        if not (x.is_vertex and y.is_vertex):
            raise MetricExtError("--kind vertex needs two vertex points")
        value = vm.distance(x.support[0], y.support[0])
        _emit({"kind": "vertex", "value": value}, args.json, f"vertex distance = {value:.12g}")
        return EXIT_OK
    if args.kind == "bilinear":
        value = bilinear_extension(vm, x, y)
        _emit({"kind": "bilinear", "value": value}, args.json,
              f"bilinear extension = {value:.12g}")
        return EXIT_OK
    M = ExtendedMetric(K, vm)
    value, branch, witness = M.distance_with_witness(x, y)
    payload = {"kind": "extended", "value": value, "branch": branch}
    text = f"extended distance = {value:.12g}  (branch: {branch})"
    if witness is not None:
        payload["witness"] = witness_to_dict(witness)
        text += "\nwitness: " + " -> ".join(
            "{" + ", ".join(f"{v}:{w:.4g}" for v, w in p.items) + "}"
            for p in witness.points
        )
    _emit(payload, args.json, text)
    return EXIT_OK


def _cmd_dd(args) -> int:
    K = load_complex(args.complex)
    vm = metric_from_spec(K, args.metric)
    pts = points_from_json(K, args.points, 4)
    if args.kind == "vertex":
        if not all(p.is_vertex for p in pts):
            raise MetricExtError("--kind vertex needs four vertex points")
        value = double_difference_vertices(vm, *[p.support[0] for p in pts])
    elif args.kind == "bilinear":
        value = double_difference_bilinear(ExtendedMetric(K, vm), *pts)
    else:
        value = double_difference_ext(ExtendedMetric(K, vm), *pts)
    _emit({"kind": args.kind, "value": value}, args.json,
          f"double difference ({args.kind}) = {value:.12g}")
    return EXIT_OK


def _cmd_gp(args) -> int:
    K = load_complex(args.complex)
    vm = metric_from_spec(K, args.metric)
    pts = points_from_json(K, args.points, 3)
    if args.kind == "vertex":
        if not all(p.is_vertex for p in pts):
            raise MetricExtError("--kind vertex needs three vertex points")
        value = gromov_product_vertices(vm, *[p.support[0] for p in pts])
    else:
        value = gromov_product_ext(ExtendedMetric(K, vm), *pts)
    _emit({"kind": args.kind, "value": value}, args.json,
          f"gromov product ({args.kind}) = {value:.12g}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    K = load_complex(args.complex)
    vm = metric_from_spec(K, args.metric)
    M = ExtendedMetric(K, vm)
    rng = np.random.default_rng(args.seed)
    if args.mode in ("convergence", "divergence"):
        if args.slots is None:
            raise MetricExtError(f"probe {args.mode} needs --slots")
        slots = slots_from_json(K, args.slots)
        depths = range(0, args.depth_max + 1) if args.depth_max is not None else None
        if args.mode == "convergence":
            report = dd_convergence_probe(M, slots, depths=depths, tol=args.tol)
        else:
            report = dd_divergence_probe(M, slots, depths=depths)
        _emit(report.to_dict(), args.json, report.to_text())
        return EXIT_OK
    if args.mode == "decay":
        grid = (
            tuple(float(s) for s in args.lambda_grid.split(","))
            if args.lambda_grid
            else None
        )
        quads = nested_quadruples(K, rng, count=args.samples)
        points = [tuple(vertex_point(K, v) for v in q) for q in quads]
        kwargs = {"threshold": args.threshold}
        if grid is not None:
            kwargs["lambda_grid"] = grid
        report = decay_probe(M, points, **kwargs)
        _emit(report.to_dict(), args.json, report.to_text())
        return EXIT_OK
    # windows
    samples = []
    for _ in range(args.samples):
        pick = rng.integers(2)
        samples.append(tuple(
            random_vertex(K, rng) if pick else random_point(K, rng) for _ in range(4)
        ))
    res = equivalence_windows_check(M, samples)
    payload = {
        "passed": res.passed,
        "worst_margin": res.worst_margin,
        "alpha": res.alpha,
        "beta": res.beta,
        "checked": res.checked,
        "vertex_checked": res.vertex_checked,
    }
    text = (
        f"4B' window: {'pass' if res.passed else 'FAIL'} "
        f"(worst margin {res.worst_margin:.6g} over {res.checked} samples)\n"
        f"fitted word-metric window: alpha={res.alpha}, beta={res.beta} "
        f"on {res.vertex_checked} vertex quadruples"
    )
    _emit(payload, args.json, text)
    return EXIT_OK if res.passed else EXIT_INTERNAL


def _cmd_oracle_compare(args) -> int:
    K = load_complex(args.complex)
    rng = np.random.default_rng(args.seed)
    n = args.resolution
    rows = []
    worst_low = 0.0
    failed = False
    for _ in range(args.samples):
        x = grid_point(K, rng, n)
        y = grid_point(K, rng, n)
        row, ok = grid_sandwich(K, x, y, n, refine=args.refine)
        worst_low = max(worst_low, row["exact"] - row["grid"])
        failed = failed or not ok
        rows.append(row)
    if args.json:
        print(json.dumps({"rows": rows, "failed": failed}, indent=2))
    else:
        header = f"{'exact':>12} {'grid':>12} {'gap':>12} {'tol':>10}"
        print(header)
        for row in rows:
            print(f"{row['exact']:>12.8f} {row['grid']:>12.8f} "
                  f"{row['gap']:>12.3e} {row['tol']:>10.4f}")
        print(f"worst exact-over-grid excess: {worst_low:.3e}")
    if worst_low > VALUE_TOL:
        return EXIT_INTERNAL  # solver exceeded its own upper oracle
    return EXIT_OK if not failed else EXIT_SUITE


def _cmd_check(args) -> int:
    K = load_complex(args.complex)
    vm = metric_from_spec(K, args.metric)
    results = run_checks(
        K, vm, suite=args.suite, seed=args.seed, triples=args.triples, pairs=args.pairs
    )
    if args.json:
        print(json.dumps(
            [
                {
                    "suite": r.suite,
                    "name": r.name,
                    "passed": r.passed,
                    "failed": r.failed,
                    "notes": r.notes,
                }
                for r in results
            ],
            indent=2,
        ))
    else:
        for r in results:
            print(r.line())
        total_pass = sum(r.passed for r in results)
        total_fail = sum(r.failed for r in results)
        print(f"total: {total_pass} ok, {total_fail} bad across {len(results)} checks")
    if tripwire_log().violations:
        return EXIT_INTERNAL
    return EXIT_OK if all(r.ok for r in results) else EXIT_SUITE


_COMMANDS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "dist": _cmd_dist,
    "dd": _cmd_dd,
    "gp": _cmd_gp,
    "probe": _cmd_probe,
    "oracle-compare": _cmd_oracle_compare,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InternalConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MetricExtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
