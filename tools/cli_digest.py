"""Digest the output of detstrata's command line over a fixed list of commands.

Each command line goes through ``detstrata.cli.main`` in this process, with
stdout and stderr captured.  One line per command gives its exit status (a
``SystemExit`` from argparse included), the SHA-256 of its stdout, the
SHA-256 of its stderr and the command line; a last line gives the command
count and the SHA-256 of the lines above it.  Two source trees whose
commands print the same bytes give the same output, so ``diff`` of the two
outputs shows whether a change kept the command line byte-identical.  A
path argument names the directory that holds the ``detstrata`` package
(default: ``src`` of this checkout), so the digest of another checkout's
sources can be taken with this same list.  Stdlib only.

    python tools/cli_digest.py [SRC_DIRECTORY]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
from pathlib import Path

# One command that each handler refuses (exit 2 with the message under its usage line).
REFUSALS = [
    ["table", "--family", "general", "--n", "2", "--kind", "euler", "--signed"],
    ["derham", "--family", "symm", "--n", "4", "--p", "1", "--check", "--method", "enum"],
    ["plethysm", "--kind", "cauchy", "--n", "4", "--i", "2"],
    ["character", "--family", "skew", "--n", "3", "--p", "0", "--weight", "2,x,0"],
    ["verify", "--family", "skew", "--max", "1"],
]


def _space(token: str, n: int, m: int | None = None) -> list[str]:
    return ["--family", token, "--n", str(n)] + ([] if m is None else ["--m", str(m)])


def _strata(token: str, n: int) -> range:
    """The stratum indices p of the space: ranks 0..n, or 0..n // 2 for skew matrices."""
    return range(n // 2 + 1 if token == "skew" else n + 1)


def commands() -> list[list[str]]:
    """The fixed list of command lines, refusals last."""
    small = ([("general", n, m) for m in range(1, 9) for n in range(1, m + 1)]
             + [("symm", n, None) for n in range(1, 15)] + [("skew", n, None) for n in range(2, 17)])
    out = [["derham", *_space(t, n, m), "--p", str(p), *flags]
           for t, n, m in small for p in _strata(t, n) for flags in (["--method", "both"], ["--check"])]
    out += [["derham", *_space(t, n, m), "--p", str(p), "--method", "enum"]
            for t, n, m in [("general", 12, 12), ("symm", 24, None), ("skew", 26, None)]
            for p in _strata(t, n)]
    out += [["verify", "--family", t, "--max", str(top)] for t, top in [("general", 6), ("symm", 12), ("skew", 14)]]
    out += [["character", *_space(t, n, m), "--p", str(p), "--weight", ",".join(map(str, w))]
            for t, n, m in [("general", 3, 4), ("symm", 4, None), ("skew", 5, None)]
            for w in itertools.combinations_with_replacement(range(4, -1, -1), n) for p in _strata(t, n)]
    out += [["plethysm", "--kind", kind, "--n", str(n), *(["--m", str(n)] if kind == "cauchy" else []),
             "--i", str(i)]
            for kind in ("cauchy", "symm", "skew") for n in (4, 7) for i in range(12)]
    out += [["table", *_space(t, n, m), "--kind", kind, "--format", fmt, *signed]
            for t, n, m in [("general", 2, 3), ("symm", 4, None), ("skew", 5, None)]
            for kind in ("euler", "chi", "micro", "ic") for fmt in ("text", "json", "csv")
            for signed in ([], ["--signed"])]
    closed = [("general", 9, 9), ("symm", 13, None), ("symm", 14, None), ("skew", 13, None)]
    out += [["table", *_space(t, n, m), "--kind", "ic", "--format", fmt]
            for t, n, m in closed for fmt in ("text", "csv", "json")]
    out += [["derham", *_space(t, n, m), "--p", str(p), "--method", "closed"]
            for t, n, m in closed for p in _strata(t, n)]
    # a weight that is not weakly decreasing: exit 2 with the constructor's message
    out += [["character", *_space(t, n, m), "--p", "0", "--weight", w]
            for t, n, m, w in [("general", 2, 3, "0,1"), ("symm", 3, None, "2,0,4"), ("skew", 4, None, "1,1,0,2")]]
    return out + REFUSALS


def digest(argv: list[str]) -> str:
    """One output line: exit status, SHA-256 of stdout and of stderr, and the command line."""
    from detstrata import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    sha = [hashlib.sha256(text.getvalue().encode()).hexdigest() for text in (stdout, stderr)]
    return f"{status} {sha[0]} {sha[1]} {' '.join(argv)}"


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(root.resolve()))
    total, count = hashlib.sha256(), 0
    for command in commands():
        line = digest(command)
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
    print(f"total {count} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
