"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles (Weyl dimension
products, semistandard tableaux, brute-force symmetric powers) so the library
is checked against code that shares none of its internals.  Five exceptions
check a fast route against the slow one it replaced: the Pascal recursion for
q-binomials, which uses ``LaurentPoly`` addition and shifts to check the
product-step route of ``gauss_binomial``; the full-row product step, which
the half-row store of ``qpoly`` replaced; and the per-stratum enumeration,
which uses the validated public ``Partition``, plethysm and ``member_*`` calls
to check the one-pass raw-tuple route of ``inv_derham_gf_enum``.  Those public
calls wrap the same builders and predicates as the route (checked on their own
in ``test_plethysm`` and ``test_characters``), so this oracle checks the one
pass: padding, conjugates, and the counting of each summand per stratum.
The fourth is the renderers at the end: the ``json.dumps`` composition of the
IC table and its text and CSV forms through ``ic_poincare`` and
``LaurentPoly.__str__``, which the half-row writer must match byte for byte,
and the strata matrix tables cell by cell from ``math.comb`` and the paper's
formulas, composed with ``json.dumps`` and ``str``, which the streamed row
writer must match.  The fifth is the closed generating functions, rebuilt by
the chain that ``inv_derham_gf_closed`` and ``ic_poincare`` replaced: the
public ``gauss_binomial``, ``substitute_power`` and ``shift``, with
parameters from the paper's formulas.  ``fresh_cache`` is no oracle: it gives one test an empty
q-binomial row cache.

The small value functions after ``fresh_cache`` (``q_power``,
``difference``, ``poly_from_json``, ``durfee``, ``fits_in``, ``to_weight``,
``partition_from_json``, ``dual`` and ``identity``) build test values and
references from the public constructors; the package itself needs none of them.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import comb
from operator import sub

from detstrata import (
    GENERAL,
    SKEW,
    SYMMETRIC,
    IntegerWeight,
    LaurentPoly,
    MatrixSpace,
    Partition,
    StrataMatrix,
    cauchy_exterior,
    gauss_binomial,
    lambda_extension,
    member_general,
    member_skew,
    member_symmetric,
    ic_poincare,
    qpoly,
    skew_exterior_partitions,
    symmetric_exterior_partitions,
)


def weyl_dimension(parts: tuple[int, ...], N: int) -> int:
    """dim of the GL_N irrep with highest weight ``parts`` (padded), as a product over pairs."""
    if len(parts) > N:
        return 0
    lam = list(parts) + [0] * (N - len(parts))
    num = den = 1
    for i in range(N):
        for j in range(i + 1, N):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    assert r == 0
    return q


def schur_character(parts: tuple[int, ...], n: int) -> Counter:
    """Monomial expansion of the Schur polynomial in n variables via SSYT enumeration.

    Keys are exponent vectors of length n, values the number of semistandard
    tableaux of shape ``parts`` with that content.
    """
    parts = tuple(p for p in parts if p)
    out: Counter = Counter()
    if len(parts) > n:
        return out
    rows = len(parts)
    tab = [[0] * p for p in parts]
    content = [0] * n

    def fill(r: int, c: int) -> None:
        if r == rows:
            out[tuple(content)] += 1
            return
        if c == parts[r]:
            fill(r + 1, 0)
            return
        lo = 1
        if c > 0:
            lo = max(lo, tab[r][c - 1])
        if r > 0 and c < parts[r - 1]:
            lo = max(lo, tab[r - 1][c] + 1)
        for v in range(lo, n + 1):
            tab[r][c] = v
            content[v - 1] += 1
            fill(r, c + 1)
            content[v - 1] -= 1

    fill(0, 0)
    return out


def sym_power_character(weights: list[tuple[int, ...]], d: int) -> Counter:
    """Character of the d-th symmetric power of a representation with the given weights."""
    out: Counter = Counter()
    for combo in combinations_with_replacement(range(len(weights)), d):
        v = [0] * len(weights[0])
        for k in combo:
            for t, a in enumerate(weights[k]):
                v[t] += a
        out[tuple(v)] += 1
    return out


def decompose_into_schur(char: Counter, n: int) -> dict[tuple[int, ...], int]:
    """Multiplicities of Schur polynomials in a symmetric character, by leading-term subtraction."""
    char = Counter({k: v for k, v in char.items() if v})
    mults: dict[tuple[int, ...], int] = {}
    while char:
        lead = max(char)
        # the lex-greatest monomial of a symmetric polynomial is dominant
        assert all(a >= b for a, b in zip(lead, lead[1:])), lead
        c = char[lead]
        assert c > 0, (lead, c)
        parts = tuple(a for a in lead if a)
        mults[parts] = c
        for w, k in schur_character(parts, n).items():
            char[w] -= c * k
            if char[w] == 0:
                del char[w]
    return mults


def sym2_weights(n: int) -> list[tuple[int, ...]]:
    """Weights of Sym^2 of the standard GL_n representation."""
    out = []
    for i in range(n):
        for j in range(i, n):
            v = [0] * n
            v[i] += 1
            v[j] += 1
            out.append(tuple(v))
    return out


def wedge2_weights(n: int) -> list[tuple[int, ...]]:
    """Weights of wedge^2 of the standard GL_n representation."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i] += 1
            v[j] += 1
            out.append(tuple(v))
    return out


def dominant_box(n: int, bound: int = 6):
    """All weakly decreasing integer n-tuples with entries in [-bound, bound]."""
    return combinations_with_replacement(range(bound, -bound - 1, -1), n)


def fresh_cache(monkeypatch):
    """An empty q-binomial row cache in the place of ``qpoly._ROWS``, for one test."""
    cache = qpoly._RowCache()
    monkeypatch.setattr(qpoly, "_ROWS", cache)
    return cache


def q_power(exponent: int, coefficient: int = 1) -> LaurentPoly:
    """The monomial coefficient * q**exponent."""
    return LaurentPoly(exponent, (coefficient,))


def difference(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a - b, as a plus b with every coefficient negated."""
    return a + LaurentPoly(b.min_exp, tuple(-c for c in b.coeffs))


def poly_from_json(data: dict) -> LaurentPoly:
    """The polynomial whose ``to_json`` is data."""
    return LaurentPoly(data["min_exp"], data["coeffs"])


def durfee(parts) -> int:
    """Side length of the largest square inside the Young diagram of weakly decreasing parts."""
    return sum(1 for i, a in enumerate(parts, start=1) if a >= i)


def fits_in(parts, rows: int, cols: int) -> bool:
    """Whether the diagram of weakly decreasing parts lies in the rows x cols rectangle."""
    if rows < 0 or cols < 0:
        raise ValueError("rectangle sides must be nonnegative")
    return len(parts) <= rows and max(parts, default=0) <= cols


def to_weight(partition: Partition, length: int) -> IntegerWeight:
    """The partition as a dominant weight of the given length, padded with zeros."""
    return IntegerWeight(partition.pad(length))


def partition_from_json(data) -> Partition:
    """The partition whose ``to_json`` is data."""
    return Partition(tuple(data))


def dual(weight: IntegerWeight) -> IntegerWeight:
    """The dual weight: negate and reverse, an involution that keeps dominance."""
    return IntegerWeight(tuple(-a for a in reversed(weight.entries)))


def identity(order: int) -> StrataMatrix:
    """The identity strata matrix of the given order."""
    return StrataMatrix(tuple(tuple(int(i == j) for j in range(order)) for i in range(order)))


def full_product_step(c: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """All coefficients of [a, b+1] from all those of [a, b]: c * (1 - q^(a-b)) / (1 - q^(b+1)).

    Multiplying by 1 - q^k turns coefficient e into m[e] = c[e] - c[e-k].
    The division by 1 - q^j is exact, so the quotient is j terms shorter and
    satisfies p[e] = m[e] + p[e-j]: a running sum along each residue class of
    exponents mod j.
    """
    k, j = a - b, b + 1
    out = list(c) + [0] * k
    out[k:] = map(sub, out[k:], c)
    del out[-j:]
    for r in range(j):
        out[r::j] = accumulate(out[r::j])
    return tuple(out)


def full_step_rows(a: int) -> list[tuple[int, ...]]:
    """All coefficients of [a, 0], ..., [a, a // 2], each by ``full_product_step`` from the last."""
    rows = [(1,)]
    for b in range(a // 2):
        rows.append(full_product_step(rows[-1], a, b))
    return rows


@lru_cache(maxsize=None)
def pascal_gauss_binomial(a: int, b: int) -> LaurentPoly:
    """The q-binomial by the Pascal-type recursion [a, b] = [a-1, b-1] + q**b [a-1, b].

    Recursive and cached without bound, so only for small a (a <= 60 in the tests).
    """
    if b == 0 or b == a:
        return q_power(0)
    return pascal_gauss_binomial(a - 1, b - 1) + pascal_gauss_binomial(a - 1, b).shift(b)


def per_stratum_gf_enum(space: MatrixSpace, p: int) -> LaurentPoly:
    """The enumerated generating function of one stratum, by its own pass over every degree.

    Counts the exterior-power summands in degree i whose partition lies in the
    stratum-p character set; for general matrices the conjugate must also
    match the spliced weight extension.
    """
    space.check_stratum(p)
    n = space.n
    counts: dict[int, int] = {}
    if space.family == GENERAL:
        m = space.m
        for i in range(space.dim + 1):
            hits = 0
            for mu in cauchy_exterior(m, n, i):
                w = to_weight(mu, n)
                if member_general(w, m, p) and (
                    to_weight(mu.conjugate(), m) == lambda_extension(w, n - p, m)
                ):
                    hits += 1
            counts[i] = hits
    elif space.family == SYMMETRIC:
        for i in range(space.dim + 1):
            counts[i] = sum(
                1
                for lam in symmetric_exterior_partitions(n, i)
                if member_symmetric(to_weight(lam, n), p)
            )
    else:
        for i in range(space.dim + 1):
            counts[i] = sum(
                1
                for lam in skew_exterior_partitions(n, i)
                if member_skew(to_weight(lam, n), p)
            )
    return LaurentPoly.from_terms(counts)


def reference_ic_json(space: MatrixSpace) -> str:
    """``table --kind ic --format json`` as one ``json.dumps`` of the whole table, without newline."""
    return json.dumps({
        "family": space.family,
        "params": space.params(),
        "kind": "ic",
        "order": space.num_strata,
        "polys": [ic_poincare(space, p).to_json() for p in space.strata],
    }, sort_keys=True)


def reference_ic_table(space: MatrixSpace, fmt: str) -> str:
    """``table --kind ic --format text|csv`` from ``ic_poincare`` and ``LaurentPoly.__str__``."""
    polys = [ic_poincare(space, p) for p in space.strata]
    if fmt == "csv":
        lines = ["stratum,exponent,coefficient"]
        lines += [f"{p},{e},{poly.coefficient(e)}" for p, poly in enumerate(polys) for e in poly.support()]
    else:
        lines = [f"p={p}: {poly}" for p, poly in enumerate(polys)]
    return "\n".join(lines) + "\n"


def reference_stratum_dim(space: MatrixSpace, p: int) -> int:
    """d_p, the dimension of the closure of stratum p (matrices of rank p, 2p for skew)."""
    n = space.n
    if space.family == GENERAL:
        return p * (space.m + n - p)
    if space.family == SYMMETRIC:
        return p * (2 * n - p + 1) // 2
    return p * (2 * n - 2 * p - 1)


def reference_closed_gf(space: MatrixSpace, p: int, offset: int) -> LaurentPoly:
    """Stratum p's IC Poincare polynomial times q**offset, by the chain the closed expanders replaced.

    ``gauss_binomial(a, b).substitute_power(power).shift(offset - d_p)`` with
    the paper's parameters: [n, p] in q**2 (general), [n // 2 + eps, p // 2]
    in q**4 with eps = 1 iff p is even and n odd (symmetric), [n // 2, p] in
    q**4 (skew).
    """
    n = space.n
    if space.family == GENERAL:
        a, b, power = n, p, 2
    elif space.family == SYMMETRIC:
        a, b, power = n // 2 + (p % 2 == 0 and n % 2 == 1), p // 2, 4
    else:
        a, b, power = n // 2, p, 4
    return gauss_binomial(a, b).substitute_power(power).shift(offset - reference_stratum_dim(space, p))


def reference_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two square matrices given as row lists, by the triple loop over (i, j, k)."""
    order = len(a)
    out = [[0] * order for _ in range(order)]
    for i in range(order):
        for j in range(order):
            for k in range(order):
                out[i][j] += a[i][k] * b[k][j]
    return out


def reference_matrix_rows(space: MatrixSpace, kind: str) -> list[list[int]]:
    """The closed strata matrix ``kind`` (euler, chi, micro, signed_micro), cell by cell.

    Euler obstructions: C(n-i, j-i) (general), C(n/2-i, j-i) (skew), and for
    symmetric 0 when n-i is even and n-j odd, else C((n-i)//2, (j-i)//2).
    chi_{i,j}: (-1)**d_j times the q = 1 value of stratum j-i of the space
    transverse to stratum i.  Microlocal indices: the identity, plus 1 at
    (j-1, j) when the space is symmetric and n-j is odd; signed by (-1)**d_i.
    """
    n, order = space.n, space.num_strata
    sign = [(-1) ** reference_stratum_dim(space, p) for p in range(order)]

    def euler(i, j):
        if space.family == GENERAL:
            return comb(n - i, j - i)
        if space.family == SKEW:
            return comb(n // 2 - i, j - i)
        return 0 if (n - i) % 2 == 0 and (n - j) % 2 == 1 else comb((n - i) // 2, (j - i) // 2)

    def chi(i, j):
        p = j - i
        if space.family == GENERAL:
            value = comb(n - i, p)
        elif space.family == SKEW:
            value = comb((n - 2 * i) // 2, p)
        else:
            small = n - i
            value = comb(small // 2 + (p % 2 == 0 and small % 2 == 1), p // 2)
        return sign[j] * value

    def micro(i, j):
        return int(i == j or (j == i + 1 and space.family == SYMMETRIC and (n - j) % 2 == 1))

    def signed_micro(i, j):
        return sign[i] * micro(i, j)

    cell = {"euler": euler, "chi": chi, "micro": micro, "signed_micro": signed_micro}[kind]
    return [[cell(i, j) if i <= j else 0 for j in range(order)] for i in range(order)]


def reference_matrix_table(space: MatrixSpace, kind: str, fmt: str, rows=None) -> str:
    """``table`` output for a strata matrix: ``json.dumps`` of the whole table, csv, or padded text."""
    if rows is None:
        rows = reference_matrix_rows(space, kind)
    if fmt == "json":
        return json.dumps({
            "family": space.family,
            "params": space.params(),
            "kind": kind,
            "order": space.num_strata,
            "rows": rows,
        }, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["stratum," + ",".join(str(j) for j in range(len(rows)))]
        lines += [f"{i}," + ",".join(str(x) for x in row) for i, row in enumerate(rows)]
    else:
        width = max(len(str(x)) for row in rows for x in row)
        lines = [" ".join(str(x).rjust(width) for x in row) for row in rows]
    return "\n".join(lines) + "\n"
