"""Command-line interface: strata tables, generating functions, characters, verification."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import lru_cache

from .characters import multiplicity
from .derham import _closed_factors, inv_derham_gf_enum
from .obstructions import chi_rows, euler_rows, micro_rows, signed_micro_rows, verify
from .partitions import IntegerWeight
from .plethysm import _exterior_partitions
from .qpoly import _half_row, _render
from .spaces import FAMILIES, GENERAL, SKEW, SYMMETRIC, MatrixSpace, spaces_up_to

FAMILY_TOKENS = {record.token: family for family, record in FAMILIES.items()}
# plethysm --kind names a space by the exterior power it lists: Cauchy's formula, Sym^2 or wedge^2
PLETHYSM_KINDS = {"cauchy": GENERAL, "symm": SYMMETRIC, "skew": SKEW}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _build_space(args: argparse.Namespace, flag: str = "--family", tokens: dict = FAMILY_TOKENS
                 ) -> MatrixSpace:
    """The space that ``flag``'s token (read through ``tokens``) and --n, --m name."""
    token = getattr(args, flag[2:])
    family = tokens[token]
    if FAMILIES[family].takes_m:
        if args.m is None:
            raise ValueError(f"--m is required for {flag} {token}")
    elif args.m is not None:
        takes_m = next(t for t, f in tokens.items() if FAMILIES[f].takes_m)
        raise ValueError(f"--m is only meaningful for {flag} {takes_m}")
    return MatrixSpace(family, args.n, args.m)


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


def _cmd_table(args: argparse.Namespace) -> int:
    if args.signed and args.kind != "micro":
        raise ValueError(f"--signed only applies to --kind micro, not --kind {args.kind}")
    space = _build_space(args)
    if args.kind == "ic":
        _write_ic(space, args.format)
    else:
        _write_matrix(space, "signed_micro" if args.signed else args.kind, args.format)
    return 0


def _cmd_derham(args: argparse.Namespace) -> int:
    if args.check and args.method not in (None, "both"):
        raise ValueError(f"--check computes both routes, so it cannot take --method {args.method}")
    space = _build_space(args)
    method = "both" if args.check else args.method or "closed"
    # Each route checks p before anything is printed, the enumerated one first.
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


def _cmd_plethysm(args: argparse.Namespace) -> int:
    space = _build_space(args, "--kind", PLETHYSM_KINDS)
    print(_dumps([p.to_json() for p in _exterior_partitions(space, args.i)]))
    return 0


def _cmd_character(args: argparse.Namespace) -> int:
    space = _build_space(args)
    entries = []
    for tok in args.weight.split(","):
        try:
            entries.append(int(tok))
        except ValueError:
            raise ValueError(f"--weight: {tok!r} is not an integer") from None
    print(multiplicity(space, args.p, IntegerWeight(tuple(entries))))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    family = FAMILY_TOKENS[args.family]
    if args.max < FAMILIES[family].min_n:
        raise ValueError(f"--max {args.max} leaves no {family} space to verify")
    for space in spaces_up_to(family, args.max):
        mismatch = verify(space)
        if mismatch is not None:
            print(f"mismatch: {mismatch}", file=sys.stderr)
            return 1
        print(f"ok {space}")
    return 0


# One flag of a subcommand; type bool is a store_true flag, which takes no value.
Option = namedtuple("Option", "flag type choices required default help",
                    defaults=(str, None, False, None, None))
_FAMILY = Option("--family", choices=tuple(sorted(FAMILY_TOKENS)), required=True)
_N = Option("--n", int, required=True)
_SPACE = (_FAMILY, _N, Option("--m", int, help="row count (general family only)"))
_P = Option("--p", int, required=True)

# Each subcommand's handler, help summary and options, in the order of its usage line.
# build_parser and _read both read this table.
COMMANDS = {
    "table": (_cmd_table, "print a strata matrix or the IC Poincare polynomials", (
        *_SPACE,
        Option("--kind", choices=("euler", "chi", "micro", "ic"), required=True),
        Option("--format", choices=("text", "json", "csv"), default="text"),
        Option("--signed", bool, default=False, help="sign the micro table by (-1)**d_i"),
    )),
    "derham": (_cmd_derham, "print invariant de Rham generating function(s)", (
        *_SPACE,
        _P,
        Option("--method", choices=("enum", "closed", "both"), help="default: closed"),
        Option("--check", bool, default=False, help="compute both routes, exit 1 on mismatch"),
    )),
    "plethysm": (_cmd_plethysm, "list exterior power summand partitions as JSON", (
        Option("--kind", choices=("cauchy", "symm", "skew"), required=True),
        _N,
        Option("--m", int),
        Option("--i", int, required=True),
    )),
    "character": (_cmd_character, "multiplicity of a weight in a stratum module", (
        *_SPACE,
        _P,
        Option("--weight", required=True, help="comma-separated integers, e.g. 2,0,-1"),
    )),
    "verify": (_cmd_verify, "run the two-route agreement suites up to a size bound", (
        _FAMILY,
        Option("--max", int, required=True),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detstrata",
        description="Exact invariants of the rank stratification of matrix spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for flag, kind, choices, required, default, help in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", default=default, help=help)
            else:
                p.add_argument(flag, type=kind, choices=choices, required=required, default=default,
                               help=help)
    return parser


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives for a well-formed command line; None for any other.

    Well-formed: a command name, then only its flags, each spelled out in
    full and given at most once, every required one present, and each value
    flag followed by a value that does not start with '-', converts with the
    option's type and is one of its choices.  Everything else (help,
    ``--flag=value``, abbreviations, negative numbers, repeats, bad values)
    is left to argparse, which reports it as it always has.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, options = COMMANDS[argv[0]]
    unread = {option.flag: option for option in options}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        option = unread.pop(flag, None)  # None for a flag the command lacks or one repeated
        if option is None:
            return None
        value = True
        if option.type is not bool:
            token = next(tokens, "-")
            try:
                value = option.type(token)
            except ValueError:
                return None
            if token.startswith("-") or option.choices and value not in option.choices:
                return None
        given[flag[2:]] = value
    if any(option.required for option in unread.values()):
        return None
    defaults = {flag[2:]: option.default for flag, option in unread.items()}
    return argparse.Namespace(command=argv[0], handler=handler, **given, **defaults)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser for help and malformed command lines, built on the first one that needs it.

    Parsing and reporting usage errors leave a parser unchanged, so one
    instance serves every call in the process.
    """
    return build_parser()


# Exit status when the reader of stdout goes away early, as in ``detstrata table ... | head``:
# 128 + SIGPIPE, what a shell reports for a program that the signal ends.
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit status (0 ok, 1 mismatch, ``EXIT_BROKEN_PIPE``).

    ``_read`` reads a well-formed command line; anything else goes to
    argparse, which prints help or a usage error (exit 2).  A handler raises
    ValueError for a refusal, its own or the library's, and that too is
    reported here as a usage error of its subcommand.  When stdout is a pipe
    whose reader has closed it, the rest of the output goes to
    ``os.devnull`` and no traceback is printed.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv) or _parser().parse_args(argv)
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
    except ValueError as exc:
        # Exit 2 with the message under the subcommand's usage line, as argparse's own errors do.
        commands = next(action.choices for action in _parser()._actions if action.dest == "command")
        commands[args.command].error(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
