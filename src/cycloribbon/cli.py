"""Command line front end.

Data goes to stdout as JSON (or CSV for the matrix commands);
diagnostics go to stderr.  Exit codes: 0 success, 1 argument or literal
validation error, 2 oracle check failure (JSON counterexample or failed
check on stderr).  Output is deterministic byte for byte for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import hopf, lincomb, oracle, reptheory, ribbons

MAX_DIM_ENV = "CYCLORIBBON_MAX_DIM"
DEFAULT_MAX_DIM = 2000
# descent sets are packed into ints with one bit per position, so a huge
# part in an element literal would only exhaust memory
MAX_LITERAL_SIZE = 10_000


def _emit(obj) -> int:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _check_sizes(args) -> None:
    for flag, least in (("n", getattr(args, "min_n", 0)), ("max_grade", 0), ("r", 1)):
        if getattr(args, flag, least) < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least {least}")


def cmd_enumerate(args) -> int:
    enum = (ribbons.enumerate_anticycloribbons if args.anti
            else ribbons.enumerate_cycloribbons)
    shape = None if args.shape is None else ribbons.parse_composition(args.shape)
    ribs = enum(args.n, args.r, shape=shape)
    return _emit({"n": args.n, "r": args.r,
                  "shape": None if shape is None else list(shape),
                  "anti": bool(args.anti),
                  "count": len(ribs),
                  "ribbons": [lincomb.label_to_json(lincomb.QMR_F, x)
                              for x in ribs]})


def cmd_phi(args) -> int:
    rib = ribbons.parse_ribbon(args.ribbon)
    return _emit({"input": lincomb.label_to_json(lincomb.QMR_F, rib),
                  "output": lincomb.label_to_json(lincomb.QMR_F,
                                                  ribbons.flip_ribbon(rib))})


def _parse_elt(basis: str, text: str, flag: str) -> lincomb.LinComb:
    if basis == "F":
        label = ribbons.parse_ribbon(text)
        if not ribbons.is_cycloribbon(label):
            raise ValueError(
                f"{flag}: {ribbons.ribbon_literal(label)} is not a cycloribbon")
        parts, tag = label.shape, lincomb.QMR_F
    else:
        label = ribbons.parse_colored_composition(text)
        parts, tag = label.parts, lincomb.MR_R if basis == "R" else lincomb.MR_S
    if sum(parts) > MAX_LITERAL_SIZE:
        raise ValueError(f"{flag}: part {max(parts)} is too large (element "
                         f"sizes above {MAX_LITERAL_SIZE} are not supported)")
    return lincomb.LinComb.single(tag, label)


def cmd_product(args) -> int:
    lhs = _parse_elt(args.basis, args.lhs, "--lhs")
    rhs = _parse_elt(args.basis, args.rhs, "--rhs")
    mul = {"F": hopf.qmr_product_F, "R": hopf.mr_product_R,
           "S": hopf.mr_product_S}[args.basis]
    return _emit(lincomb.lincomb_to_json(mul(lhs, rhs)))


def cmd_coproduct(args) -> int:
    elt = _parse_elt(args.basis, args.elt, "--elt")
    cop = hopf.qmr_coproduct_F if args.basis == "F" else hopf.mr_coproduct
    return _emit(lincomb.tensorcomb_to_json(cop(elt)))


def cmd_induce_hecke_projective(args) -> int:
    shape = ribbons.parse_composition(args.shape)
    summands = reptheory.induce_hecke_projective(shape, args.r)
    return _emit({"shape": list(shape), "r": args.r,
                  "summands": [{"label": ribbons.colored_composition_literal(cc),
                                "parts": list(cc.parts),
                                "colors": list(cc.colors),
                                "dim": dim}
                               for cc, dim in summands],
                  "total_dim": sum(d for _, d in summands)})


# subcommand -> (matrix function, row label literal, JSON "matrix" value)
MATRICES = {"cartan": (reptheory.cartan_matrix,
                       ribbons.colored_composition_literal, "cartan"),
            "decomp": (reptheory.decomposition_matrix,
                       ribbons.multipartition_literal, "decomposition")}


def cmd_matrix(args) -> int:
    build, row_fmt, name = MATRICES[args.command]
    matrix = build(args.n, args.r)
    if args.format == "csv":
        sys.stdout.write(matrix.to_csv(row_fmt))
        return 0
    return _emit({"n": args.n, "r": args.r, "matrix": name,
                  **matrix.to_json_dict(row_fmt)})


def cmd_dims(args) -> int:
    labels = reptheory.projective_labels(args.n, args.r)
    dims = [(cc, reptheory.dim_projective(cc)) for cc in labels]
    return _emit({"n": args.n, "r": args.r,
                  "projectives": [{"label": ribbons.colored_composition_literal(cc),
                                   "dim": d} for cc, d in dims],
                  "sum": sum(d for _, d in dims),
                  "algebra_dim": args.r ** args.n * math.factorial(args.n)})


def _check_cap(dim: int, noun: str) -> None:
    raw = os.environ.get(MAX_DIM_ENV)
    try:
        cap = DEFAULT_MAX_DIM if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}")
    if dim > cap:
        raise ValueError(f"{noun} {dim} exceeds the cap {cap} "
                         f"(set {MAX_DIM_ENV} to raise it)")


def cmd_oracle_verify(args) -> int:
    u = ()
    if args.u is not None:
        try:
            u = tuple(Fraction(piece) for piece in args.u.split(","))
        except ZeroDivisionError:
            raise ValueError(f"--u: zero denominator in {args.u!r}") from None
        except ValueError:
            raise ValueError(f"--u: {args.u!r} is not a comma separated "
                             "list of rationals") from None
        if len(u) != args.r or len(set(u)) != args.r:
            raise ValueError(f"--u: {args.u!r} must list {args.r} pairwise "
                             "distinct rationals, one per color")
    params = oracle.AlgebraParams(args.n, args.r, u)
    _check_cap(params.dimension, "instance dimension")
    checks = oracle.verify_relations(params)
    ok = all(c["pass"] for c in checks)
    _emit({"n": args.n, "r": args.r,
           "u": [str(x) for x in params.u],
           "checks": checks, "pass": ok})
    if not ok:
        json.dump([c for c in checks if not c["pass"]], sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


def cmd_oracle_cross_check(args) -> int:
    _check_cap(args.r ** args.max_grade * math.factorial(args.max_grade),
               "largest instance dimension")
    report = oracle.cross_check_induction(args.r, args.max_grade)
    _emit(report)
    if not report["pass"]:
        json.dump(report["failures"][:3], sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloribbon",
        description="colored ribbon combinatorics and module bookkeeping "
                    "for the colored 0-Hecke algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--n", type=int, required=True)
    sizes.add_argument("--r", type=int, required=True)

    p = sub.add_parser("enumerate", parents=[sizes],
                       help="list cycloribbons or anticycloribbons")
    p.add_argument("--shape", help="composition literal, e.g. 2,1")
    p.add_argument("--anti", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("phi", help="apply the flip involution to a ribbon")
    p.add_argument("--ribbon", required=True, help='literal "shape|colors"')
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("product", help="multiply two basis elements")
    p.add_argument("--basis", choices=["F", "R", "S"], required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("coproduct", help="coproduct of a basis element")
    p.add_argument("--basis", choices=["F", "R", "S"], required=True)
    p.add_argument("--elt", required=True)
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("induce-simples",
                       help="composition factors of an induction product")
    p.add_argument("--lhs", required=True, help='cycloribbon "shape|colors"')
    p.add_argument("--rhs", required=True, help='cycloribbon "shape|colors"')
    p.set_defaults(func=cmd_product, basis="F")

    p = sub.add_parser("induce-hecke-projective",
                       help="induce a colorless projective module")
    p.add_argument("--shape", required=True, help="composition literal")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_induce_hecke_projective)

    for name in MATRICES:
        p = sub.add_parser(name, parents=[sizes], help=f"{name} matrix")
        p.add_argument("--format", choices=["csv", "json"], default="json")
        p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("dims", parents=[sizes], help="dimensions of the projectives")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("oracle", help="structure-constant checks")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("verify", parents=[sizes], help="check the defining relations")
    q.add_argument("--u", help='comma separated parameters, e.g. "1,3,7"')
    q.set_defaults(func=cmd_oracle_verify, min_n=1)
    q = osub.add_parser("cross-check",
                        help="combinatorial vs explicit induction products")
    q.add_argument("--max-grade", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(func=cmd_oracle_cross_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        _check_sizes(args)
        return args.func(args)
    except (ValueError, OverflowError, oracle.OracleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, oracle.OracleError) else 1


if __name__ == "__main__":
    sys.exit(main())
