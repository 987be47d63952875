"""Command-line interface: strata tables, generating functions, characters, verification."""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .characters import multiplicity
from .derham import _closed_factors, ic_poincare, inv_derham_gf_closed, inv_derham_gf_enum
from .obstructions import StrataMatrix, chi_closed, euler_closed, micro_indices, signed_micro, verify
from .partitions import IntegerWeight
from .plethysm import cauchy_exterior, skew_exterior_partitions, symmetric_exterior_partitions
from .qpoly import _json_text, gauss_binomial
from .spaces import FAMILIES, GENERAL, MatrixSpace, spaces_up_to

FAMILY_TOKENS = {record.token: family for family, record in FAMILIES.items()}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _build_space(parser: argparse.ArgumentParser, args: argparse.Namespace) -> MatrixSpace:
    family = FAMILY_TOKENS[args.family]
    if FAMILIES[family].takes_m:
        if args.m is None:
            parser.error(f"--m is required for --family {args.family}")
    elif args.m is not None:
        parser.error(f"--m is only meaningful for --family {GENERAL}")
    try:
        return MatrixSpace(family, args.n, args.m)
    except ValueError as exc:
        parser.error(str(exc))


def _print_matrix(matrix: StrataMatrix, space: MatrixSpace, kind: str, fmt: str) -> None:
    if fmt == "json":
        print(_dumps({
            "family": space.family,
            "params": space.params(),
            "kind": kind,
            "order": matrix.order,
            "rows": matrix.to_json(),
        }))
    elif fmt == "csv":
        print("stratum," + ",".join(str(j) for j in range(matrix.order)))
        for i, row in enumerate(matrix.rows):
            print(f"{i}," + ",".join(str(x) for x in row))
    else:
        width = max(len(str(x)) for row in matrix.rows for x in row)
        for row in matrix.rows:
            print(" ".join(str(x).rjust(width) for x in row))


def _print_ic(space: MatrixSpace, fmt: str) -> None:
    if fmt == "json":
        # "polys" sorts after the other keys, so the polys close the object.
        head = _dumps({
            "family": space.family,
            "params": space.params(),
            "kind": "ic",
            "order": space.num_strata,
        })
        # Each distinct row [a, b] = [a, a - b] is rendered once, at the step of its power of q.
        rows: dict[tuple[int, int], str] = {}
        texts = []
        for p in space.strata:
            a, b, power, shift = _closed_factors(space, p)
            key = (a, min(b, a - b))
            if key not in rows:
                rows[key] = _json_text(gauss_binomial(a, b).coeffs, power)
            texts.append(f'{{"coeffs": {rows[key]}, "min_exp": {shift}}}')
        print(head[:-1], ', "polys": [', ", ".join(texts), "]}", sep="")
        return
    polys = [ic_poincare(space, p) for p in space.strata]
    if fmt == "csv":
        print("stratum,exponent,coefficient")
        for p, poly in enumerate(polys):
            for e in poly.support():
                print(f"{p},{e},{poly.coefficient(e)}")
    else:
        for p, poly in enumerate(polys):
            print(f"p={p}: {poly}")


def _cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.signed and args.kind != "micro":
        parser.error(f"--signed only applies to --kind micro, not --kind {args.kind}")
    space = _build_space(parser, args)
    if args.kind == "ic":
        _print_ic(space, args.format)
        return 0
    if args.kind == "euler":
        matrix, kind = euler_closed(space), "euler"
    elif args.kind == "chi":
        matrix, kind = chi_closed(space), "chi"
    elif args.signed:
        matrix, kind = signed_micro(space), "signed_micro"
    else:
        matrix, kind = micro_indices(space), "micro"
    _print_matrix(matrix, space, kind, args.format)
    return 0


def _cmd_derham(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.check and args.method not in (None, "both"):
        parser.error(f"--check computes both routes, so it cannot take --method {args.method}")
    space = _build_space(parser, args)
    try:
        space.check_stratum(args.p)
    except ValueError as exc:
        parser.error(str(exc))
    method = "both" if args.check else args.method or "closed"
    if method == "enum":
        print(f"enum: {inv_derham_gf_enum(space, args.p)}")
        return 0
    if method == "closed":
        print(f"closed: {inv_derham_gf_closed(space, args.p)}")
        return 0
    enum = inv_derham_gf_enum(space, args.p)
    closed = inv_derham_gf_closed(space, args.p)
    print(f"enum: {enum}")
    print(f"closed: {closed}")
    if args.check and enum != closed:
        print(f"mismatch: {space} p={args.p}: enum={enum}, closed={closed}", file=sys.stderr)
        return 1
    return 0


def _cmd_plethysm(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        if args.kind == "cauchy":
            if args.m is None:
                parser.error("--m is required for --kind cauchy")
            parts = cauchy_exterior(args.m, args.n, args.i)
        else:
            if args.m is not None:
                parser.error("--m is only meaningful for --kind cauchy")
            if args.kind == "symm":
                parts = symmetric_exterior_partitions(args.n, args.i)
            else:
                parts = skew_exterior_partitions(args.n, args.i)
    except ValueError as exc:
        parser.error(str(exc))
    print(_dumps([p.to_json() for p in parts]))
    return 0


def _cmd_character(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    space = _build_space(parser, args)
    entries = []
    for tok in args.weight.split(","):
        try:
            entries.append(int(tok))
        except ValueError:
            parser.error(f"--weight: {tok!r} is not an integer")
    try:
        value = multiplicity(space, args.p, IntegerWeight(tuple(entries)))
    except ValueError as exc:
        parser.error(str(exc))
    print(value)
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    family = FAMILY_TOKENS[args.family]
    spaces = spaces_up_to(family, args.max)
    if not spaces:
        parser.error(f"--max {args.max} leaves no {family} space to verify")
    for space in spaces:
        mismatch = verify(space)
        if mismatch is not None:
            print(f"mismatch: {mismatch}", file=sys.stderr)
            return 1
        print(f"ok {space}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detstrata",
        description="Exact invariants of the rank stratification of matrix spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", choices=sorted(FAMILY_TOKENS), required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, default=None, help="row count (general family only)")

    p_table = sub.add_parser("table", help="print a strata matrix or the IC Poincare polynomials")
    add_family(p_table)
    p_table.add_argument("--kind", choices=["euler", "chi", "micro", "ic"], required=True)
    p_table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_table.add_argument("--signed", action="store_true", help="sign the micro table by (-1)**d_i")

    p_derham = sub.add_parser("derham", help="print invariant de Rham generating function(s)")
    add_family(p_derham)
    p_derham.add_argument("--p", type=int, required=True)
    p_derham.add_argument("--method", choices=["enum", "closed", "both"], help="default: closed")
    p_derham.add_argument("--check", action="store_true", help="compute both routes, exit 1 on mismatch")

    p_pleth = sub.add_parser("plethysm", help="list exterior power summand partitions as JSON")
    p_pleth.add_argument("--kind", choices=["cauchy", "symm", "skew"], required=True)
    p_pleth.add_argument("--n", type=int, required=True)
    p_pleth.add_argument("--m", type=int, default=None)
    p_pleth.add_argument("--i", type=int, required=True)

    p_char = sub.add_parser("character", help="multiplicity of a weight in a stratum module")
    add_family(p_char)
    p_char.add_argument("--p", type=int, required=True)
    p_char.add_argument("--weight", required=True, help="comma-separated integers, e.g. 2,0,-1")

    p_verify = sub.add_parser("verify", help="run the two-route agreement suites up to a size bound")
    p_verify.add_argument("--family", choices=sorted(FAMILY_TOKENS), required=True)
    p_verify.add_argument("--max", type=int, required=True)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call rather than at import.

    Parsing and reporting usage errors leave a parser unchanged, so one
    instance serves every call in the process.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handlers = {
        "table": _cmd_table,
        "derham": _cmd_derham,
        "plethysm": _cmd_plethysm,
        "character": _cmd_character,
        "verify": _cmd_verify,
    }
    return handlers[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
