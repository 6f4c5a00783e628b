"""Command-line front end with stable text and JSON output.

Domain outcomes (not pure, HK failure, not a multiple) are data: the run
still exits 0 and prints a structured report.  Exit code 1 marks domain
errors that prevent a computation (unreadable files, bad schema,
mismatched variable counts, invalid inputs, failed reductions); 2 marks
usage and parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .betti import (
    BettiDiagram,
    NotPureError,
    _mult_str,
    _purity,
    check_hk,
    hilbert_numerator,
)
from .hkspace import (
    GeneratorError,
    MembershipReport,
    ReductionError,
    find_generator,
    membership,
)
from .laurent import ExactDivisionError, format_poly, poly_to_json
from .schur import schur_bialternant, schur_gcd_family, schur_polys, schur_ssyt


def _ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="purebetti",
        description="Exact multigraded Betti diagrams of pure resolutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("schur", help="Schur polynomial for a partition")
    p.add_argument("--lambda", dest="lam", type=_ints, required=True,
                   metavar="L", help="partition, e.g. 4,2,1")
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--method", choices=("bialternant", "ssyt", "both"))
    fmt(p)

    p = sub.add_parser("equivariant", help="equivariant pure diagram for a gap vector")
    p.add_argument("--e", type=_ints, required=True, metavar="E")
    p.add_argument("--twist", type=_ints, default=None, metavar="A")
    fmt(p)

    p = sub.add_parser("check", help="purity and Herzog-Kuhl report for a diagram file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    fmt(p)

    p = sub.add_parser("decompose", help="membership report against the canonical generator")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--e", type=_ints, required=True, metavar="E")
    fmt(p)

    p = sub.add_parser("gcd-schur", help="gcd and cofactors of the Schur family for e")
    p.add_argument("--e", type=_ints, required=True, metavar="E")
    fmt(p)

    p = sub.add_parser("generator", help="common generator of diagram files")
    p.add_argument("--in", dest="infiles", required=True, nargs="+", metavar="FILE")
    fmt(p)

    p = sub.add_parser("collapse", help="collapse a diagram to total degrees")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    fmt(p)

    p = sub.add_parser("hilbert", help="Hilbert series numerator of a diagram file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    fmt(p)

    return parser


def _load_diagram(path):
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    return BettiDiagram.from_json(obj)


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _cmd_schur(args):
    if args.method == "bialternant":
        poly = schur_bialternant(args.lam, args.nvars)
    elif args.method == "ssyt":
        poly = schur_ssyt(args.lam, args.nvars)
    else:
        [poly] = schur_polys([args.lam], args.nvars)
        if args.method == "both" and not (
                poly == schur_bialternant(args.lam, args.nvars)
                == schur_ssyt(args.lam, args.nvars)):
            raise AssertionError(
                "branching rule, bialternant and tableau sums disagree")
    if args.format == "json":
        _emit(poly_to_json(poly))
    else:
        print(format_poly(poly))
    return 0


def _cmd_equivariant(args):
    from .betti import equivariant_diagram

    diagram = equivariant_diagram(args.e)
    if args.twist is not None:
        diagram = diagram.twist(args.twist)
    if args.format == "json":
        _emit(diagram.to_json())
    else:
        profile = diagram.purity()
        print(f"e = {','.join(str(v) for v in args.e)}  "
              f"degrees = {','.join(str(d) for d in profile.degrees)}")
        print(diagram.format_table())
    return 0


def _check_payload(diagram):
    polys = diagram.betti_polynomials()
    profile = _purity(polys)
    hk = check_hk(polys)
    return {
        "pure": bool(profile.is_pure or profile.is_zero),
        "witness": None if profile.witness is None else str(profile.witness),
        "degrees": list(profile.degrees) if profile.degrees else None,
        "e": list(profile.diffs) if profile.diffs else None,
        "hk_pass": hk.passed,
        "hk_k": hk.k,
        "hk_residual": poly_to_json(hk.residual) if hk.residual is not None else None,
    }


def _cmd_check(args):
    payload = _check_payload(_load_diagram(args.infile))
    if args.format == "json":
        _emit(payload)
    else:
        if payload["pure"] and payload["degrees"]:
            print(f"pure: yes  degrees = {payload['degrees']}  e = {payload['e']}")
        elif payload["pure"]:
            print("pure: yes (zero diagram)")
        else:
            print(f"pure: no  witness = {payload['witness']}")
        if payload["hk_pass"]:
            print("hk: pass")
        else:
            print(f"hk: fail at k={payload['hk_k']}")
    return 0


def _cmd_decompose(args):
    diagram = _load_diagram(args.infile)
    try:
        tup = diagram.to_tuple()
    except NotPureError as exc:
        report = MembershipReport(
            False, None, False, (f"diagram is not pure: {exc.witness}",))
    else:
        report = membership(tup, args.e)
    if args.format == "json":
        _emit(report.to_json())
        return 0
    print(f"in_space: {'yes' if report.in_space else 'no'}")
    if report.in_space:
        print(f"cofactor: {format_poly(report.cofactor)}")
        print(f"integral: {'yes' if report.integral else 'no'}")
    else:
        for reason in report.reasons:
            print(f"reason: {reason}")
    return 0


def _cmd_gcd_schur(args):
    r, g, cofactors = schur_gcd_family(args.e)
    if args.format == "json":
        _emit({
            "e": list(args.e),
            "r": r,
            "gcd": poly_to_json(g),
            "cofactors": [poly_to_json(f) for f in cofactors],
        })
        return 0
    print(f"r = {r}")
    print(f"gcd = {format_poly(g)}")
    for i, f in enumerate(cofactors):
        print(f"cofactor[{i}] = {format_poly(f)}")
    return 0


def _cmd_generator(args):
    tuples = [_load_diagram(path).to_tuple() for path in args.infiles]
    result = find_generator(tuples)
    if args.format == "json":
        _emit(result.to_diagram().to_json())
        return 0
    for i, f in enumerate(result.components):
        print(f"component[{i}] = {format_poly(f)}")
    return 0


def _cmd_collapse(args):
    diagram = _load_diagram(args.infile)
    table = diagram.collapse_total()
    entries = sorted(table.items())
    if args.format == "json":
        _emit({
            "nvars": diagram.nvars,
            "entries": [
                {"i": i, "total_degree": d, "mult": _mult_str(m)}
                for (i, d), m in entries
            ],
        })
        return 0
    for (i, d), m in entries:
        print(f"i={i}  degree={d}  mult={_mult_str(m)}")
    return 0


def _cmd_hilbert(args):
    diagram = _load_diagram(args.infile)
    polys = diagram.betti_polynomials()
    # divisibility by prod (1 - t_k) holds exactly when the HK equations do,
    # so the failing k is only looked up when the division fails
    try:
        numerator = hilbert_numerator(polys)
        hk_k = None
    except ExactDivisionError:
        numerator = None
        hk_k = check_hk(polys).k
    payload = {
        "divisible": numerator is not None,
        "numerator": poly_to_json(numerator) if numerator is not None else None,
        "hk_k": hk_k,
    }
    if args.format == "json":
        _emit(payload)
        return 0
    if numerator is None:
        print(f"not divisible (HK fails at k={hk_k})")
    else:
        print(format_poly(numerator))
    return 0


_HANDLERS = {
    "schur": _cmd_schur,
    "equivariant": _cmd_equivariant,
    "check": _cmd_check,
    "decompose": _cmd_decompose,
    "gcd-schur": _cmd_gcd_schur,
    "generator": _cmd_generator,
    "collapse": _cmd_collapse,
    "hilbert": _cmd_hilbert,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _HANDLERS[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ZeroDivisionError, NotPureError,
            GeneratorError, ReductionError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
