"""Command-line interface: strata tables, generating functions, characters, verification."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial

from .characters import multiplicity
from .derham import _closed_factors, inv_derham_gf_enum
from .obstructions import chi_rows, euler_rows, micro_rows, signed_micro_rows, verify
from .partitions import IntegerWeight
from .plethysm import cauchy_exterior, skew_exterior_partitions, symmetric_exterior_partitions
from .qpoly import _half_row, _render
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


def _json_head(space: MatrixSpace, kind: str) -> dict:
    """The keys every JSON table shares; its own key ("rows" or "polys") sorts after them."""
    return {"family": space.family, "params": space.params(), "kind": kind, "order": space.num_strata}


# The row generator of each strata matrix, by the name its JSON table carries.
MATRIX_ROWS = {"euler": euler_rows, "chi": chi_rows, "micro": micro_rows, "signed_micro": signed_micro_rows}


def _write_matrix(space: MatrixSpace, kind: str, fmt: str) -> None:
    """Write a strata matrix to stdout one row at a time, as its rows are computed."""
    write, rows = sys.stdout.write, MATRIX_ROWS[kind]
    if fmt == "json":
        # "rows" sorts after the head's keys, so the rows close the object.
        write(_dumps(_json_head(space, kind))[:-1] + ', "rows": [')
        for i, row in enumerate(rows(space)):
            if i:
                write(", ")
            write(json.dumps(row))
        write("]}\n")
    elif fmt == "csv":
        write("stratum," + ",".join(map(str, space.strata)) + "\n")
        for i, row in enumerate(rows(space)):
            write(f"{i},{','.join(map(str, row))}\n")
    else:
        # Every cell is padded to the widest one; in a row that is its largest or,
        # counting the sign, its smallest entry.
        width = max(len(str(x)) for row in rows(space) for x in (max(row), min(row)))
        cell = f"{{:>{width}}}".format
        for row in rows(space):
            write(" ".join(map(cell, row)) + "\n")


def _write_ic(space: MatrixSpace, fmt: str) -> None:
    """Write the IC table to stdout one stratum at a time, from the closed form's half rows."""
    write = sys.stdout.write
    factors = (_closed_factors(space, p) for p in space.strata)
    if fmt == "json":
        # "polys" sorts after the head's keys, so the polys close the object.
        write(_dumps(_json_head(space, "ic"))[:-1] + ', "polys": [')
        # Each distinct row [a, b] = [a, a - b] is rendered once, at the step of its power of q.
        rows: dict[tuple[int, int], str] = {}
        for p, (a, b, power, shift) in enumerate(factors):
            key = (a, min(b, a - b))
            text = rows.get(key)
            if text is None:
                text = rows[key] = _render(*_half_row(a, b), power, 0, "json")
            write(', {"coeffs": ' if p else '{"coeffs": ')
            write(text)
            write(f', "min_exp": {shift}}}')
        write("]}\n")
        return
    if fmt == "csv":
        write("stratum,exponent,coefficient\n")
    for p, (a, b, power, shift) in enumerate(factors):
        if fmt == "csv":
            write(_render(*_half_row(a, b), power, shift, "csv", f"{p},"))
        else:
            write(f"p={p}: ")
            write(_render(*_half_row(a, b), power, shift, "text"))
        write("\n")


def _cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.signed and args.kind != "micro":
        parser.error(f"--signed only applies to --kind micro, not --kind {args.kind}")
    space = _build_space(parser, args)
    if args.kind == "ic":
        _write_ic(space, args.format)
    else:
        _write_matrix(space, "signed_micro" if args.signed else args.kind, args.format)
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
    if method != "closed":
        enum = str(inv_derham_gf_enum(space, args.p))
        print(f"enum: {enum}")
    if method != "enum":
        # str(inv_derham_gf_closed(space, p)): the IC factors with the shift raised by dim
        a, b, power, shift = _closed_factors(space, args.p)
        closed = _render(*_half_row(a, b), power, shift + space.dim, "text")
        write = sys.stdout.write
        write("closed: ")
        write(closed)
        write("\n")
    # The printed texts are canonical, so they differ exactly when the two polynomials do.
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
    if args.max < FAMILIES[family].min_n:
        parser.error(f"--max {args.max} leaves no {family} space to verify")
    for space in spaces_up_to(family, args.max):
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

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        # each handler reports usage errors through its own subparser
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=partial(handler, p))
        return p

    p_table = command("table", _cmd_table, "print a strata matrix or the IC Poincare polynomials")
    add_family(p_table)
    p_table.add_argument("--kind", choices=["euler", "chi", "micro", "ic"], required=True)
    p_table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_table.add_argument("--signed", action="store_true", help="sign the micro table by (-1)**d_i")

    p_derham = command("derham", _cmd_derham, "print invariant de Rham generating function(s)")
    add_family(p_derham)
    p_derham.add_argument("--p", type=int, required=True)
    p_derham.add_argument("--method", choices=["enum", "closed", "both"], help="default: closed")
    p_derham.add_argument("--check", action="store_true", help="compute both routes, exit 1 on mismatch")

    p_pleth = command("plethysm", _cmd_plethysm, "list exterior power summand partitions as JSON")
    p_pleth.add_argument("--kind", choices=["cauchy", "symm", "skew"], required=True)
    p_pleth.add_argument("--n", type=int, required=True)
    p_pleth.add_argument("--m", type=int, default=None)
    p_pleth.add_argument("--i", type=int, required=True)

    p_char = command("character", _cmd_character, "multiplicity of a weight in a stratum module")
    add_family(p_char)
    p_char.add_argument("--p", type=int, required=True)
    p_char.add_argument("--weight", required=True, help="comma-separated integers, e.g. 2,0,-1")

    p_verify = command("verify", _cmd_verify, "run the two-route agreement suites up to a size bound")
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


# Exit status when the reader of stdout goes away early, as in ``detstrata table ... | head``:
# 128 + SIGPIPE, what a shell reports for a program that the signal ends.
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit status (0 ok, 1 mismatch, ``EXIT_BROKEN_PIPE``).

    Usage errors exit 2 through argparse.  When stdout is a pipe whose reader
    has closed it, the rest of the output goes to ``os.devnull`` and no
    traceback is printed.
    """
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_BROKEN_PIPE  # no descriptor to redirect, so nothing flushes it later
        # The interpreter flushes stdout again at exit; let that write land in devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
