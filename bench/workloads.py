"""Query pools of the detstrata benchmark, and the checks applied to every answer.

A query is run through detstrata's public surface only: names exported by the
package and ``detstrata.cli.main(argv)`` with stdout captured.  Each query
returns the exact text it produced; the caller times the call, then hands the
text to ``check`` outside the timed region.

The checks do not trust the program.  Every output is compared with a golden
SHA-256 digest recorded from the seed commit, and polynomial or matrix outputs
are also checked against values computed here with ``math.comb``, not with the
package's closed route.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from math import comb

import detstrata
import detstrata.cli


@dataclass(frozen=True)
class Space:
    """A matrix space described independently of detstrata.MatrixSpace."""

    family: str  # "general" | "symmetric" | "skew"
    n: int
    m: int = 0

    def __str__(self) -> str:
        if self.family == "general":
            return f"general({self.m},{self.n})"
        return f"{self.family}({self.n})"

    @property
    def dim(self) -> int:
        if self.family == "general":
            return self.m * self.n
        if self.family == "symmetric":
            return self.n * (self.n + 1) // 2
        return self.n * (self.n - 1) // 2

    @property
    def strata(self) -> range:
        return range(self.n // 2 + 1 if self.family == "skew" else self.n + 1)

    def d(self, p: int) -> int:
        """Dimension of the closure of stratum p."""
        if self.family == "general":
            return p * (self.m + self.n - p)
        if self.family == "symmetric":
            return p * (2 * self.n - p + 1) // 2
        return p * (2 * self.n - 2 * p - 1)

    def binomial(self, p: int) -> int:
        """Value at q = 1 of the stratum-p generating function (total Betti number)."""
        half = self.n // 2
        if self.family == "general":
            return comb(self.n, p)
        if self.family == "symmetric":
            eps = 1 if p % 2 == 0 and self.n % 2 == 1 else 0
            return comb(half + eps, p // 2)
        return comb(half, p)

    def cli_args(self) -> list[str]:
        token = {"general": "general", "symmetric": "symm", "skew": "skew"}[self.family]
        args = ["--family", token, "--n", str(self.n)]
        return args + ["--m", str(self.m)] if self.family == "general" else args

    def matrix_space(self):
        if self.family == "general":
            return detstrata.MatrixSpace.general(self.m, self.n)
        if self.family == "symmetric":
            return detstrata.MatrixSpace.symmetric(self.n)
        return detstrata.MatrixSpace.skew(self.n)


class CheckFailed(Exception):
    """An answer that is wrong: the query counts as failed."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def parse_poly(text: str) -> dict[int, int]:
    """Terms {exponent: coefficient} of a polynomial printed as 'q^4 + 2*q^6 - 3'."""
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signs = ["-" if pieces[0].startswith("-") else "+", *pieces[1::2]]
    bodies = [pieces[0].removeprefix("-"), *pieces[2::2]]
    terms: dict[int, int] = {}
    for sign, body in zip(signs, bodies):
        coeff, _, var = body.rpartition("*")
        if not coeff:
            coeff, var = ("1", body) if "q" in body else (body, "")
        require(var in ("", "q") or var.startswith("q^"), f"unreadable term {body!r}")
        exp = int(var[2:]) if var.startswith("q^") else 1 if var == "q" else 0
        require(exp not in terms, f"exponent {exp} printed twice")
        terms[exp] = int(coeff) if sign == "+" else -int(coeff)
    return terms


def summary(terms: dict[int, int]) -> tuple[int, int | None]:
    """Value at q = 1 and lowest exponent of a polynomial given by its terms."""
    return sum(terms.values()), min((e for e, c in terms.items() if c), default=None)


def json_summary(poly: dict) -> tuple[int, int | None]:
    """Value at q = 1 and lowest exponent of a polynomial given as {"min_exp", "coeffs"}."""
    coeffs = poly["coeffs"]
    first = next((k for k, c in enumerate(coeffs) if c), None)
    return sum(coeffs), None if first is None else poly["min_exp"] + first


def check_gf(space: Space, p: int, found: tuple[int, int | None], lowest: int, what: str) -> None:
    """Value at q = 1 is the family binomial and the lowest exponent is `lowest`."""
    value, low = found
    require(value == space.binomial(p),
            f"{what} {space} p={p}: value at q=1 is {value}, expected {space.binomial(p)}")
    require(low == lowest, f"{what} {space} p={p}: lowest exponent {low}, expected {lowest}")


@dataclass(frozen=True)
class Query:
    """One request of a workload: a stable id, the call to time, the checks to apply."""

    qid: str
    space: Space
    kind: str  # "verify" | "check" (derham --check) | "derham" | "ic" | "chi"
    p: int = 0

    def argv(self) -> list[str]:
        if self.kind in ("check", "derham"):
            extra = ["--check"] if self.kind == "check" else []
            return ["derham", *self.space.cli_args(), "--p", str(self.p), *extra]
        fmt = "json" if self.kind == "ic" else "csv"
        return ["table", *self.space.cli_args(), "--kind", self.kind, "--format", fmt]

    def run(self) -> tuple[str, bool]:
        """Answer the query; return its exact output and whether the program's verdict is ok."""
        if self.kind == "verify":
            return run_verify(self.space)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = detstrata.cli.main(self.argv())
        return out.getvalue(), code == 0

    def check(self, output: str, verdict_ok: bool, golden: str | None) -> None:
        require(verdict_ok, f"{self.qid}: the program reported a failure")
        digest = hashlib.sha256(output.encode()).hexdigest()
        require(digest == golden, f"{self.qid}: output digest {digest[:12]} is not the golden one")
        checkers = {
            "verify": self._check_verify,
            "check": self._check_derham,
            "derham": self._check_derham,
            "ic": self._check_ic,
            "chi": self._check_chi,
        }
        checkers[self.kind](output)

    def _check_verify(self, output: str) -> None:
        data = json.loads(output)
        for p in self.space.strata:
            lowest = self.space.dim - self.space.d(p)
            check_gf(self.space, p, json_summary(data["gf_enum"][p]), lowest, "enum gf")

    def _check_derham(self, output: str) -> None:
        routes = dict(line.split(": ", 1) for line in output.splitlines())
        expected = {"enum", "closed"} if self.kind == "check" else {"closed"}
        require(set(routes) == expected, f"{self.qid}: printed routes {sorted(routes)}")
        require(len(set(routes.values())) == 1, f"{self.qid}: routes printed different polynomials")
        for route, text in routes.items():
            lowest = self.space.dim - self.space.d(self.p)
            check_gf(self.space, self.p, summary(parse_poly(text)), lowest, route)

    def _check_ic(self, output: str) -> None:
        data = json.loads(output)
        require(data["order"] == len(data["polys"]) == len(self.space.strata),
                f"{self.qid}: wrong number of strata")
        for p, poly in enumerate(data["polys"]):
            check_gf(self.space, p, json_summary(poly), -self.space.d(p), "ic")

    def _check_chi(self, output: str) -> None:
        rows = [line.split(",") for line in output.splitlines()]
        strata = self.space.strata
        require(len(rows) == len(strata) + 1, f"{self.qid}: wrong number of rows")
        require(rows[0] == ["stratum", *map(str, strata)], f"{self.qid}: bad csv header")
        n = self.space.n
        for i in strata:
            expected = [str(i)] + [
                str((-1) ** self.space.d(j) * comb(n - i, j - i) if j >= i else 0) for j in strata
            ]
            require(rows[i + 1] == expected, f"{self.qid}: chi row {i} differs from the binomials")


def run_verify(space: Space) -> tuple[str, bool]:
    """The full two-route check of one space, from public calls only.

    The verdict is the program's own: enumeration equals the closed form for
    every stratum, the index identity holds, and the Euler obstructions solved
    from the enumerated chi matrix equal the closed ones.  The output is built
    from the results' public fields, so rendering code is not timed.
    """
    ms = space.matrix_space()
    enum = [detstrata.inv_derham_gf_enum(ms, p) for p in ms.strata]
    closed = [detstrata.inv_derham_gf_closed(ms, p) for p in ms.strata]
    index_ok = detstrata.verify_index_identity(ms)
    solved = detstrata.solve_euler(detstrata.chi_from_enumeration(ms), detstrata.signed_micro(ms))
    euler = detstrata.euler_closed(ms)
    verdict = enum == closed and index_ok and solved == euler
    output = json.dumps({
        "space": str(space),
        "gf_enum": [{"min_exp": g.min_exp, "coeffs": list(g.coeffs)} for g in enum],
        "gf_closed": [{"min_exp": g.min_exp, "coeffs": list(g.coeffs)} for g in closed],
        "index_identity": index_ok,
        "euler_solved": [list(row) for row in solved.rows],
        "euler_closed": [list(row) for row in euler.rows],
    }, sort_keys=True)
    return output, verdict


def verify_sweep() -> list[Query]:
    spaces = [Space("general", n, m) for m in range(1, 7) for n in range(1, m + 1)]
    spaces += [Space("symmetric", n) for n in range(1, 11)]
    spaces += [Space("skew", n) for n in range(2, 13)]
    return [Query(f"verify {s}", s, "verify") for s in spaces]


def enum_strata() -> list[Query]:
    spaces = [Space("general", n, m) for n in (5, 6, 7) for m in range(n, 9)]
    spaces += [Space("symmetric", n) for n in (10, 11)]
    spaces += [Space("skew", n) for n in (12, 13)]
    return [Query(f"derham --check {s} p={p}", s, "check", p) for s in spaces for p in s.strata]


def closed_tables() -> list[Query]:
    queries = []
    for n in range(20, 81, 10):
        s = Space("general", n, n)
        queries += [
            Query(f"ic {s}", s, "ic"),
            Query(f"derham {s} p={n // 2}", s, "derham", n // 2),
            Query(f"chi general({n + 5},{n})", Space("general", n, n + 5), "chi"),
        ]
    for n in range(40, 161, 20):
        for s in (Space("symmetric", n), Space("skew", n)):
            queries += [Query(f"ic {s}", s, "ic"), Query(f"derham {s} p={n // 4}", s, "derham", n // 4)]
    return queries


POOLS = {"verify_sweep": verify_sweep, "enum_strata": enum_strata, "closed_tables": closed_tables}
