"""Command-line front end reproducing the verification experiments.

Subcommands: ``leja`` (section construction + greedy-property validation),
``bounds`` (univariate sup-norm and Lebesgue sweeps), ``bivariate``
(intertwining-array identities), ``transport`` (ellipse transplantation and
the distortion constant).  Exit codes: 0 success, 1 usage error, 2 a checked
bound or identity failed beyond tolerance.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import bivariate as bv
from . import transport as tp
from .core import UNIFORM_FLIP_BOUND, UNIFORM_FLIP_BOUND_2D
from .disk import canonical_disk_leja, circle_samples, greedy_leja, validate_leja
from .flip import circle_flip_stats, special_n_statistics

USAGE_ERROR, CHECK_FAILED = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _emit(rows: list[dict] | dict, fmt: str, out_path: str | None) -> None:
    """Write ``rows`` (for JSON, any JSON value) as CSV or JSON to ``out_path`` or stdout.

    CSV takes its header from the first row's keys and is empty for no rows.
    """
    buf = io.StringIO()
    if fmt == "json":
        buf.write(json.dumps(rows, indent=2) + "\n")
    elif rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------


def _cmd_leja(args) -> int:
    if args.n_points < 1:
        raise ValueError("-N must be positive")
    if args.ellipse:
        boundary = tp.boundary_samples(tp.ellipse_exterior_map(*args.ellipse), args.samples)
    else:
        boundary = circle_samples(args.samples)
    tol = args.tol if args.tol is not None else 10.0 / args.samples
    if not 0.0 < tol < 1.0:  # shortfalls of distinct nodes are below 1, so tol >= 1 passes every section; NaN fails
        raise ValueError(f"rel_tol must be in (0, 1), got {tol}")
    if args.ellipse or args.greedy:
        section = greedy_leja(boundary, args.n_points, args.seed_index)
    else:
        origin = complex(math.cos(args.origin_angle), math.sin(args.origin_angle))
        section = canonical_disk_leja(args.n_points, origin)
    report = validate_leja(section, boundary)
    passed = report.max_violation <= tol
    points = [{"re": float(z.real), "im": float(z.imag)} for z in section.points]
    if args.format == "json":
        out = {"n": len(section), "points": points, "compact_tag": section.compact_tag}
    else:
        out = [{"index": i, **point} for i, point in enumerate(points, start=1)]
    _emit(out, args.format, args.output)
    print(
        f"validated {len(section)} points: max_violation={report.max_violation:.3e} "
        f"worst_k={report.worst_k} tol={tol:.3e} -> {'pass' if passed else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if passed else CHECK_FAILED


def _bounds_row(n_points: int, grid: int | None, refine: int) -> dict:
    section = canonical_disk_leja(n_points)
    sups, leb = circle_flip_stats(section, grid, refine)
    max_sup = float(np.max(sups))
    return {
        "N": n_points,
        "max_sup": max_sup,
        "lebesgue": leb.constant,
        "sup_margin": UNIFORM_FLIP_BOUND - max_sup,
        "lebesgue_margin": 2.0 * n_points - leb.constant,
    }


def _cmd_bounds(args) -> int:
    if not args.special_n and (args.p_range is not None or args.avg):
        raise ValueError("--p and --avg check the special-n sweep; they need --special-n")
    if not args.special_n and args.max_n < 1:
        raise ValueError("--max-n must be positive")
    rows: list[dict] = []
    failed = False
    # every rule below is written as the passing case, so a NaN fails it
    if args.special_n:
        floor = 4.0 * math.cos(math.pi / 8.0) / math.pi
        prev_avg = math.inf
        for p in args.p_range or list(range(2, 9)):
            n_points = 2**p - 1
            stats = special_n_statistics(p, args.grid, args.refine)
            rel = abs(stats.lebesgue - n_points) / n_points
            rows.append(
                {
                    "p": p,
                    "N": n_points,
                    "lebesgue": stats.lebesgue,
                    "lebesgue_target": n_points,
                    "lebesgue_relerr": rel,
                    "sum_sup": stats.sum_sup,
                    "avg_sup": stats.avg_sup,
                    "max_sup": stats.max_sup,
                    "min_sup": stats.min_over_k,
                }
            )
            window = floor - 1e-6 < stats.max_sup <= 2.0 + 1e-6 and stats.sum_sup > n_points
            trend = not args.avg or 1.0 < stats.avg_sup < prev_avg
            failed = failed or not (rel <= 1e-6 and window and trend)
            prev_avg = stats.avg_sup
    else:
        rows = [_bounds_row(nn, args.grid, args.refine) for nn in range(1, args.max_n + 1)]
        failed = not all(
            r["max_sup"] <= UNIFORM_FLIP_BOUND + 1e-6
            and r["lebesgue"] <= 2.0 * r["N"] + 1e-6
            for r in rows
        )
    _emit(rows, args.format, args.output)
    return CHECK_FAILED if failed else 0


def _cmd_bivariate(args) -> int:
    mode = args.mode or "delta"
    if mode not in ("lebesgue", "decay"):  # the modes that read --n-max, and not --n
        if args.n_range is not None:
            raise ValueError(f"--n is read by --lebesgue and --decay only, not by --{mode}")
        if args.n_max < 1:
            raise ValueError("--n-max must be positive")
    rng = np.random.default_rng(args.seed)
    rows: list[dict] = []
    failed = False
    max_n_nodes = args.n_max

    def sources(n: int):
        eta = canonical_disk_leja(n + 2).points
        return eta, eta

    def array(n_nodes: int) -> bv.IntertwiningArray:
        return bv.build_array(*sources(bv.shape_of(n_nodes)[0]), n_nodes)

    # every rule below is written as the passing case, so a NaN fails it
    if mode == "delta":
        if max_n_nodes < 7:
            raise ValueError("--delta needs --n-max >= 7, where all seven closed forms have occurred")
        cases: set[str] = set()
        for n_nodes in range(1, max_n_nodes + 1):
            worst, seen = bv.check_delta(array(n_nodes))
            cases |= seen
            rows.append({"N": n_nodes, "max_delta_err": worst, "cases_seen": len(cases)})
            failed = failed or not worst <= 1e-10
        failed = failed or len(cases) < 7
    elif mode == "oracle":
        if max_n_nodes > bv.DEFAULT_ORACLE_CAP:
            raise ValueError(f"--oracle checks N <= {bv.DEFAULT_ORACLE_CAP}: --n-max {max_n_nodes} is above that cap")
        for n_nodes in range(1, max_n_nodes + 1):
            worst = bv.check_oracle(array(n_nodes), rng, args.points)
            rows.append({"N": n_nodes, "max_rel_err": worst})
            failed = failed or not worst <= 1e-8
    elif mode == "factorization":
        for n_nodes in range(1, max_n_nodes + 1):
            worst = bv.check_factorization(array(n_nodes), rng, args.points)
            rows.append({"check": "extension", "size": n_nodes, "max_rel_err": worst})
            failed = failed or not worst <= 1e-8
        for n in range(5):
            err = bv.check_product_formula(array(bv.triangular_number(n)))
            rows.append({"check": "product-formula", "size": n, "max_rel_err": err})
            failed = failed or not err <= 1e-8
    elif mode == "verify-2d-leja":
        if max_n_nodes < 2:
            raise ValueError("--verify-2d-leja needs --n-max >= 2: the first node it checks is H_2")
        rep = bv.verify_2d_leja(*sources(bv.shape_of(max_n_nodes)[0]), max_n_nodes, args.grid)
        rows.append(
            {"checked": rep.checked, "max_shortfall": rep.max_shortfall, "worst_size": rep.worst_size}
        )
        failed = not rep.max_shortfall <= 1e-6
    elif mode == "lebesgue":
        n_values = args.n_range or list(range(2, 11))
        if min(n_values) < 1:
            raise ValueError("--lebesgue needs n >= 1: at n = 0 the envelope C*n(n+1)(n+2) is 0 and Lambda is 1")
        for n in n_values:
            n_nodes = bv.triangular_number(n)
            lam = bv.bivariate_lebesgue(array(n_nodes), args.grid)
            envelope = UNIFORM_FLIP_BOUND_2D * n * (n + 1) * (n + 2)
            rows.append({"n": n, "N": n_nodes, "lebesgue": lam, "envelope": envelope})
            failed = failed or not lam <= envelope
        if len(rows) > 1:
            slope = float(np.polyfit(np.log([r["N"] for r in rows]), np.log([r["lebesgue"] for r in rows]), 1)[0])
            print(f"fitted log-log slope: {slope:.4f}", file=sys.stderr)
    else:  # decay
        n_values = args.n_range or list(range(2, 13))
        if min(n_values) < 2:
            raise ValueError("--decay needs n >= 2: the decay table starts at n = 2")
        table = bv.jackson_decay_experiment(lambda z, w: np.exp(z + w), max(n_values), grid=args.grid)
        failed = not all(e1 < e0 for (_, _, e0), (_, _, e1) in zip(table, table[1:]))  # the whole table, n = 2..max
        rows = [{"n": n, "N": size, "sup_error": err} for n, size, err in table if n in set(n_values)]
    _emit(rows, args.format, args.output)
    return CHECK_FAILED if failed else 0


def _cmd_transport(args) -> int:
    a, b = args.ellipse
    emap = tp.ellipse_exterior_map(a, b)
    if not args.alper and args.max_n < 2:
        raise ValueError("--max-n must be at least 2, the smallest N the sweep checks")
    rows: list[dict] = []
    failed = False
    if args.alper:
        base = tp.estimate_alper_constant(emap, args.w_grid, args.t_grid)
        doubled = tp.estimate_alper_constant(emap, 2 * args.w_grid, 2 * args.t_grid)
        rows.append(
            {
                "a": a,
                "b": b,
                "alper": doubled,
                "alper_coarse": base,
                "doubling_delta": abs(doubled - base),
            }
        )
        failed = a == b and not abs(doubled) <= 1e-6  # a NaN fails
    else:
        n_values = [n for n in (2**k for k in range(1, 30)) if n <= args.max_n]
        for n_points in n_values:
            ts = tp.transport_sequence(emap, canonical_disk_leja(n_points))
            node_sups, leb = tp.compact_flip_stats(ts, args.grid, args.refine)
            max_sup = float(np.max(node_sups))
            rows.append({"N": n_points, "max_sup": max_sup, "lebesgue": leb.constant})
        if len(rows) > 2:
            slope = float(np.polyfit(np.log([r["N"] for r in rows]), np.log([r["max_sup"] for r in rows]), 1)[0])
            print(f"fitted log-log slope of max_sup vs N: {slope:.4f}", file=sys.stderr)
    _emit(rows, args.format, args.output)
    return CHECK_FAILED if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lejaflip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("-o", "--output", default=None, help="write the table here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized evaluation points")

    p = sub.add_parser(
        "leja",
        help="construct and validate a section",
        epilog="output columns: index, re, im (JSON: {n, points, compact_tag})",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--disk", action="store_true")
    group.add_argument("--ellipse", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("-N", dest="n_points", type=int, required=True)
    p.add_argument("--greedy", action="store_true", help="greedy construction (implied for --ellipse)")
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--seed-index", type=int, default=0)
    p.add_argument("--origin-angle", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=None, help="validation tolerance in (0, 1) (default 10/samples)")
    common(p)
    p.set_defaults(func=_cmd_leja)

    p = sub.add_parser(
        "bounds",
        help="univariate sup-norm and Lebesgue sweeps",
        epilog=(
            "sweep columns: N, max_sup, lebesgue, sup_margin, lebesgue_margin; "
            "--special-n columns: p, N, lebesgue, lebesgue_target, lebesgue_relerr, "
            "sum_sup, avg_sup, max_sup, min_sup"
        ),
    )
    p.add_argument("--max-n", type=int, default=64)
    p.add_argument("--special-n", action="store_true")
    p.add_argument("--p", dest="p_range", type=_parse_range, default=None, metavar="LO..HI")
    p.add_argument("--avg", action="store_true", help="also require avg_sup > 1 and decreasing")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--refine", type=int, default=40)
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "bivariate",
        help="intertwining-array identities",
        epilog=(
            "columns by mode -- delta: N, max_delta_err, cases_seen; oracle: N, max_rel_err; "
            "factorization: check, size, max_rel_err; verify-2d-leja: checked, max_shortfall, "
            "worst_size; lebesgue: n, N, lebesgue, envelope; decay: n, N, sup_error"
        ),
    )
    modes = p.add_mutually_exclusive_group()
    modes.add_argument("--delta", dest="mode", action="store_const", const="delta")
    modes.add_argument("--oracle", dest="mode", action="store_const", const="oracle")
    modes.add_argument("--factorization", dest="mode", action="store_const", const="factorization")
    modes.add_argument("--verify-2d-leja", dest="mode", action="store_const", const="verify-2d-leja")
    modes.add_argument("--lebesgue", dest="mode", action="store_const", const="lebesgue")
    modes.add_argument("--decay", dest="mode", action="store_const", const="decay")
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument("--n", dest="n_range", type=_parse_range, default=None, metavar="LO..HI")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--points", type=int, default=16)
    common(p)
    p.set_defaults(func=_cmd_bivariate, mode=None)

    p = sub.add_parser(
        "transport",
        help="ellipse transplantation experiments",
        epilog=(
            "sweep columns: N, max_sup, lebesgue; "
            "--alper columns: a, b, alper, alper_coarse, doubling_delta"
        ),
    )
    p.add_argument("--ellipse", nargs=2, type=float, metavar=("A", "B"), required=True)
    p.add_argument("--max-n", type=int, default=64)
    p.add_argument("--alper", action="store_true")
    p.add_argument("--w-grid", type=int, default=256)
    p.add_argument("--t-grid", type=int, default=256)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--refine", type=int, default=40)
    common(p)
    p.set_defaults(func=_cmd_transport)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
