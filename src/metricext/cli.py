"""Command-line workbench.

Subcommands: validate, gen, dist, dd, gp, probe, oracle-compare, check.
Shared options: -c/--complex (all but gen), -m/--metric (dist, dd, gp, probe,
check: default word; validate: no default), --json (all but validate and gen),
--seed (gen, probe, oracle-compare, check: default 0).  JSON is the single
exchange format; tables go to stdout for humans, --json switches to machine
output.  Exit codes: 0 success, 1 validation failure, 2 property-suite
failure, 3 internal inconsistency, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from .checks import DEFAULT_PAIRS, DEFAULT_TRIPLES, GRID_RESOLUTION, SUITES, grid_sandwich, run_checks
from .complexes import VALUE_TOL, vertex_point
from .errors import InternalConsistencyError, MetricExtError
from .extension import ExtendedMetric, bilinear_extension
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
from .generators import (
    DEFAULT_MAX_DIM, GeneratorSpec, generate, grid_point, nested_quadruples, random_quadruples
)
from .pathmetric import PathWitness, l1_path_distance, tripwire_log
from .probes import (
    DEFAULT_CONVERGENCE_TOL,
    DEFAULT_LAMBDA_GRID,
    dd_convergence_probe,
    dd_divergence_probe,
    decay_probe,
    equivalence_windows_check,
)
from .vertexmetrics import double_difference, gromov_product

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SUITE = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64


def _int_at_least(text: str, least: int, need: str) -> int:
    """An int of at least `least`; anything else is a usage error (exit 64)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"{need}, got {value}")
    return value


_sample_count = partial(_int_at_least, least=1, need="need at least one sample")
_seed = partial(_int_at_least, least=0, need="need a seed of at least 0")  # numpy's least seed
_resolution = partial(_int_at_least, least=2, need="need a resolution of at least 2")  # the grid oracle's


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors leave through exit code 64
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _option(*flags: str, **kwargs) -> _Parser:
    """A parent parser that declares one option shared by several subcommands."""
    parent = _Parser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _build_parser() -> _Parser:
    parser = _Parser(prog="metricext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    complex_ = _option("-c", "--complex", required=True)
    metric = _option("-m", "--metric", default="word", help="metric file or 'word'")
    seed = _option("--seed", type=_seed, default=0)
    as_json = _option("--json", action="store_true")
    query = [complex_, metric, as_json]

    p = sub.add_parser("validate", parents=[complex_],
                       help="validate a complex (and optional metric) file")
    p.add_argument("-m", "--metric", default=None, help="metric file or 'word'")

    p = sub.add_parser("gen", parents=[seed], help="generate a test complex")
    p.add_argument("-k", "--kind", required=True,
                   choices=["simplex", "path", "cycle", "tree", "rips", "random"])
    p.add_argument("-p", "--param", action="append", type=float, default=[],
                   help="numeric parameters, repeatable (e.g. -p 2 -p 3)")
    p.add_argument("--base", default=None, help="base complex file (rips only)")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("dist", parents=query, help="distance between two points")
    p.add_argument("--kind", default="extended",
                   choices=["vertex", "bilinear", "l1path", "extended"])
    p.add_argument("-x", required=True, help="point as JSON map")
    p.add_argument("-y", required=True, help="point as JSON map")

    p = sub.add_parser("dd", parents=query, help="double difference of four points")
    p.add_argument("--kind", default="extended", choices=["vertex", "bilinear", "extended"])
    p.add_argument("--points", required=True, help="JSON array of four point maps")

    p = sub.add_parser("gp", parents=query, help="Gromov product of three points")
    p.add_argument("--kind", default="extended", choices=["vertex", "extended"])
    p.add_argument("--points", required=True, help="JSON array of three point maps")

    p = sub.add_parser("probe", parents=query + [seed], help="boundary probes")
    p.add_argument("mode", choices=["convergence", "divergence", "decay", "windows"])
    p.add_argument("--slots", default=None, help="JSON array of 4 slots (ray/point)")
    p.add_argument("--depth-max", type=int, default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_CONVERGENCE_TOL)
    p.add_argument("--samples", type=_sample_count, default=40)
    p.add_argument("--lambda-grid", default=None, help="comma-separated values")
    p.add_argument("--threshold", type=float, default=None)

    p = sub.add_parser("oracle-compare", parents=[complex_, as_json, seed],
                       help="exact solver vs grid oracle")
    p.add_argument("--samples", type=_sample_count, default=20)
    p.add_argument("--resolution", type=_resolution, default=GRID_RESOLUTION, help="grid is 1/n")
    p.add_argument("--refine", action="store_true", help="also run at 1/(2n)")

    p = sub.add_parser("check", parents=query + [seed], help="run property suites")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--triples", type=_sample_count, default=DEFAULT_TRIPLES)
    p.add_argument("--pairs", type=_sample_count, default=DEFAULT_PAIRS)

    return parser


def _emit(data: dict, as_json: bool, text: str) -> None:
    print(json.dumps(data, indent=2) if as_json else text)


def _witness_text(witness: PathWitness) -> str:
    return "witness: " + " -> ".join(
        "{" + ", ".join(f"{v}:{w:.4g}" for v, w in p.items) + "}" for p in witness.points
    )


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
            f"l1path distance = {value:.12g}\n" + _witness_text(witness),
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
        text += "\n" + _witness_text(witness)
    _emit(payload, args.json, text)
    return EXIT_OK


# dd and gp: how many points (as a word and a number), the formula, its name in the text output
_FORMULAS = {
    "dd": ("four", 4, double_difference, "double difference"),
    "gp": ("three", 3, gromov_product, "gromov product"),
}


def _cmd_dd_gp(args) -> int:
    """The dd or gp formula over the given points, with the --kind distance."""
    word, count, formula, name = _FORMULAS[args.command]
    K = load_complex(args.complex)
    vm = metric_from_spec(K, args.metric)
    pts = points_from_json(K, args.points, count)
    if args.kind == "vertex":
        if not all(p.is_vertex for p in pts):
            raise MetricExtError(f"--kind vertex needs {word} vertex points")
        d, pts = vm.distance, [p.support[0] for p in pts]
    elif args.kind == "bilinear":
        d = partial(bilinear_extension, vm)
    else:
        d = ExtendedMetric(K, vm).distance
    value = formula(d, *pts)
    _emit({"kind": args.kind, "value": value}, args.json, f"{name} ({args.kind}) = {value:.12g}")
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
            else DEFAULT_LAMBDA_GRID
        )
        quads = nested_quadruples(K, rng, count=args.samples)
        points = [tuple(vertex_point(K, v) for v in q) for q in quads]
        report = decay_probe(M, points, lambda_grid=grid, threshold=args.threshold)
        _emit(report.to_dict(), args.json, report.to_text())
        return EXIT_OK
    # windows
    res = equivalence_windows_check(M, random_quadruples(K, rng, args.samples))
    text = (
        f"4B' window: {'pass' if res.passed else 'FAIL'} "
        f"(worst margin {res.worst_margin:.6g} over {res.checked} samples)\n"
        f"fitted word-metric window: alpha={res.alpha}, beta={res.beta} "
        f"on {res.vertex_checked} vertex quadruples"
    )
    _emit(asdict(res), args.json, text)
    return EXIT_OK if res.passed else EXIT_INTERNAL


def _cmd_oracle_compare(args) -> int:
    K = load_complex(args.complex)
    n = args.resolution
    if n <= K.dimension:  # a grid point on a face of dim K + 1 vertices needs n >= dim K + 1
        print(f"metricext oracle-compare: error: argument --resolution: need a resolution above "
              f"the complex's dimension {K.dimension}, got {n}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
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
        print(json.dumps([{"suite": r.suite, **asdict(r)} for r in results], indent=2))
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
    "dd": _cmd_dd_gp,
    "gp": _cmd_dd_gp,
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
