"""Command-line front end: algebra constructors, the Laplacian, the
detector family, and the distribution-to-algebra pipeline, all with JSON
output.

Exit codes: 0 success (detector falsity is payload, not an exit code),
2 input or parse error, 3 mathematical precondition failure such as a
singular metric or an improper tangent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .scalars import DEFAULT_EPS, EXACT, FLOAT, format_scalar, parse_rational, scalars_equal
from .weil import algebra_to_json, laplace_algebra, quotient_algebra, truncated_algebra
from .expr import expr_to_polynomial, parse_expr, parse_function
from .coalgebra import Distribution, distribution_report
from .geometry import (
    MetricField,
    conformal_check,
    cr_check,
    is_laplace_neighbor,
    laplacian,
    make_point,
    preserves_affine_combinations,
    preserves_laplace_neighbors,
)


def _encode(value):
    """A scalar as its printed form, a tuple as a list of them, None as is."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return format_scalar(value)


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_point(text: str, mode: str):
    coords = [parse_rational(part) for part in text.split(",")]
    if mode == FLOAT:
        try:
            return tuple(float(c) for c in coords)
        except OverflowError:
            raise ValueError(f"point {text!r} lies outside the float range") from None
    return tuple(coords)


def _load_metric(path: str | None, n: int) -> MetricField:
    if path is None:
        return MetricField.standard_flat(n)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("metric file nests too deeply") from None
    if not isinstance(doc, dict) or "n" not in doc or "G" not in doc:
        raise ValueError("metric file must contain keys 'n' and 'G'")
    if not isinstance(doc["G"], list):
        raise ValueError("metric rows must be lists of expression strings")
    if doc["n"] != len(doc["G"]):
        raise ValueError("metric file dimension does not match its matrix")
    return MetricField.from_strings(doc["G"])


def _epsilon(text: str) -> float:
    eps = float(text)
    if not (math.isfinite(eps) and eps >= 0):
        raise argparse.ArgumentTypeError(f"epsilon must be finite and >= 0, got {text}")
    return eps


def _mode_fields(args) -> dict:
    out = {"mode": args.mode}
    if args.mode == FLOAT:
        out["epsilon"] = args.epsilon
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_algebra(args) -> dict:
    if args.kind == "dk":
        if args.n is None or args.k is None:
            raise ValueError("algebra dk needs --n and --k")
        algebra = truncated_algebra(args.n, args.k)
    elif args.kind == "dl":
        if args.n is None:
            raise ValueError("algebra dl needs --n")
        algebra = laplace_algebra(args.n)
    else:
        if args.n is None or args.bound is None:
            raise ValueError("algebra quotient needs --n and --bound")
        relations = [
            expr_to_polynomial(parse_expr(text, n=args.n), args.n) for text in args.rel or []
        ]
        algebra = quotient_algebra(args.n, args.bound, relations)
    doc = algebra_to_json(algebra)
    doc["dimension"] = algebra.dimension
    return doc


def cmd_laplacian(args) -> dict:
    point = _parse_point(args.point, args.mode)
    metric = _load_metric(args.metric, len(point))
    fn = parse_expr(args.fn, n=metric.n)
    value = laplacian(metric, fn, point, mode=args.mode)
    doc = {"value": _encode(value), "function": args.fn, "point": _encode(point)}
    doc.update(_mode_fields(args))
    return doc


def cmd_check(args) -> dict:
    point = _parse_point(args.point, args.mode)
    n = len(point)
    doc = {"kind": args.kind, "point": _encode(point)}
    doc.update(_mode_fields(args))
    if args.kind in ("conformal", "cr", "preserves-l") and not args.map:
        raise ValueError(f"check {args.kind} needs --map")
    if args.kind == "conformal":
        fmap = parse_function(args.map, n=n)
        src = _load_metric(args.metric, n)
        dst = _load_metric(args.dst_metric, fmap.n_out)
        report = conformal_check(fmap, src, dst, point, mode=args.mode, eps=args.epsilon)
        doc.update(
            conformal=report.conformal,
            factor=_encode(report.factor),
            isometry=report.isometry,
        )
    elif args.kind == "harmonic":
        if not args.fn:
            raise ValueError("check harmonic needs --fn")
        metric = _load_metric(args.metric, n)
        fn = parse_expr(args.fn, n=n)
        value = laplacian(metric, fn, point, mode=args.mode)
        doc.update(
            harmonic=scalars_equal(value, 0, args.epsilon if args.mode == FLOAT else None),
            laplacian=_encode(value),
            affine_preserving=preserves_affine_combinations(
                metric, fn, point, mode=args.mode, eps=args.epsilon
            ),
        )
    elif args.kind == "cr":
        fmap = parse_function(args.map, n=2)
        report = cr_check(fmap, point, mode=args.mode, eps=args.epsilon)
        doc.update(
            holomorphic=report.holomorphic,
            derivative=_encode(report.derivative),
            cr_equations=report.cr_equations,
            orientation_preserving=report.orientation_preserving,
            harmonic_components=report.harmonic_components,
        )
    elif args.kind == "l-neighbor":
        if not args.z:
            raise ValueError("check l-neighbor needs --z")
        metric = _load_metric(args.metric, n)
        ambient = truncated_algebra(n, args.ambient_order)
        offsets = []
        for text in args.z.split(","):
            poly = expr_to_polynomial(parse_expr(text, n=n, prefix="d"), n)
            if poly.constant_term() != 0:
                raise ValueError("neighbor coordinates must be nilpotent (no constant term)")
            offsets.append(ambient.from_polynomial(poly))
        if len(offsets) != n:
            raise ValueError("need one coordinate expression per dimension")
        z = make_point(point, offsets)
        doc["l_neighbor"] = is_laplace_neighbor(metric, point, z, mode=args.mode, eps=args.epsilon)
    elif args.kind == "preserves-l":
        fmap = parse_function(args.map, n=n)
        doc["preserves_l"] = preserves_laplace_neighbors(fmap, point, mode=args.mode, eps=args.epsilon)
    else:
        raise ValueError(f"unknown check kind {args.kind!r}")
    return doc


def cmd_coalgebra(args) -> dict:
    poly = expr_to_polynomial(parse_expr(args.dist, n=args.n, prefix="d"), args.n)
    dist = Distribution.from_polynomial(poly)
    if dist.is_zero():
        raise ValueError("the zero distribution generates nothing")
    doc = distribution_report(dist)
    doc.update(_mode_fields(args))
    return doc


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with a single '-' and is no option (only
    ``-h`` is) as a value, so that ``--point -1,0`` and ``--fn "-x1^2"``
    parse; argparse alone takes them for unknown options.  Subparsers
    inherit the class."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilgeom",
        description="exact infinitesimal geometry: algebras, Laplacians, detectors",
    )
    parser.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    parser.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPS)
    parser.add_argument("--output", default=None, help="write JSON here instead of stdout")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--mode", choices=(EXACT, FLOAT), default=argparse.SUPPRESS)
    shared.add_argument("--epsilon", type=_epsilon, default=argparse.SUPPRESS)
    shared.add_argument("--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="construct a Weil algebra", parents=[shared])
    p_alg.add_argument("kind", choices=("dk", "dl", "quotient"))
    p_alg.add_argument("--n", type=int)
    p_alg.add_argument("--k", type=int)
    p_alg.add_argument("--bound", type=int)
    p_alg.add_argument("--rel", action="append", help="relation polynomial (repeatable)")
    p_alg.set_defaults(run=cmd_algebra)

    p_lap = sub.add_parser("laplacian", help="Laplacian of a function at a point", parents=[shared])
    p_lap.add_argument("--metric", help="metric JSON file; omitted means standard flat")
    p_lap.add_argument("--fn", required=True)
    p_lap.add_argument("--point", required=True)
    p_lap.set_defaults(run=cmd_laplacian)

    p_chk = sub.add_parser("check", help="run a geometric detector", parents=[shared])
    p_chk.add_argument("kind", choices=("conformal", "harmonic", "cr", "l-neighbor", "preserves-l"))
    p_chk.add_argument("--map", help="comma-separated component expressions")
    p_chk.add_argument("--fn", help="scalar function expression")
    p_chk.add_argument("--point", required=True)
    p_chk.add_argument("--metric", help="source metric JSON file")
    p_chk.add_argument("--dst-metric", help="target metric JSON file")
    p_chk.add_argument("--z", help="neighbor coordinates as expressions in d1..dn")
    p_chk.add_argument("--ambient-order", type=int, default=2)
    p_chk.set_defaults(run=cmd_check)

    p_co = sub.add_parser("coalgebra", help="subcoalgebra generated by a distribution", parents=[shared])
    p_co.add_argument("--dist", required=True, help="symbol polynomial in d1..dn")
    p_co.add_argument("--n", type=int, required=True)
    p_co.set_defaults(run=cmd_coalgebra)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.run(args), args)
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
