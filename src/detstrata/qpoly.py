"""Exact Laurent polynomials in one variable q, and Gaussian binomial coefficients."""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, sub
from typing import Mapping

from .partitions import _ints, _size

# Most q-binomial coefficients the row cache holds at once, counting stored
# halves.  The half rows [n, 0] .. [n, n // 2] of a general(n, n) table fit up
# to n = 293; the row a call just used is kept even when it alone is larger.
_ROW_CACHE_COEFFS = 1 << 20


def _trim(min_exp: int, coeffs: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Drop zero coefficients from both ends; the zero polynomial becomes (0, ())."""
    lo = 0
    hi = len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return 0, ()
    return min_exp + lo, coeffs[lo:hi]


def _mirror(first, length: int):
    """The palindrome of ``length`` entries whose first ceil(length / 2) entries are ``first``."""
    return first + first[: length // 2][::-1]


def _term(coefficient: str, exponent: int) -> str:
    """One term of ``LaurentPoly.__str__``: ``coefficient`` is its nonzero coefficient as text."""
    if exponent == 0:
        return coefficient
    var = "q" if exponent == 1 else f"q^{exponent}"
    return coefficient[:-1] + var if coefficient in ("1", "-1") else f"{coefficient}*{var}"


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial, stored as a dense coefficient run.

    ``coeffs[k]`` is the coefficient of ``q**(min_exp + k)``.  The run is
    trimmed so its first and last entries are nonzero; the zero polynomial is
    the canonical value with an empty run and ``min_exp == 0``.  All
    coefficients are exact Python integers: the exponent and coefficients go
    through ``operator.index``, so a float, a string or None raises a
    TypeError naming ``min_exp`` or ``coeffs``.
    """

    min_exp: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        min_exp, coeffs = _trim(_size("min_exp", self.min_exp), _ints("coeffs", self.coeffs))
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _from_run(cls, min_exp: int, coeffs: tuple[int, ...]) -> LaurentPoly:
        """Wrap a run of exact ints computed in this module: trimmed, not re-validated."""
        poly = object.__new__(cls)
        min_exp, coeffs = _trim(min_exp, coeffs)
        object.__setattr__(poly, "min_exp", min_exp)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    @classmethod
    def from_terms(cls, terms: Mapping[int, int]) -> LaurentPoly:
        """The polynomial with coefficient terms[e] at q**e; zero coefficients may be listed."""
        lo, hi = min(terms, default=0), max(terms, default=-1)
        return cls(lo, tuple(terms.get(e, 0) for e in range(lo, hi + 1)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no degree")
        return self.min_exp + len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        k = _size("exponent", exponent) - self.min_exp
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def support(self) -> list[int]:
        """Exponents carrying a nonzero coefficient, increasing."""
        return [self.min_exp + k for k, c in enumerate(self.coeffs) if c != 0]

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # the zero polynomial's min_exp 0 must not widen the run: 0 + q**k stays one coefficient
        runs = [poly for poly in (self, other) if poly.coeffs]
        lo = min([poly.min_exp for poly in runs], default=0)
        out = [0] * (max([poly.min_exp + len(poly.coeffs) for poly in runs], default=0) - lo)
        for poly in runs:
            i = poly.min_exp - lo
            end = i + len(poly.coeffs)
            out[i:end] = map(add, out[i:end], poly.coeffs)
        return LaurentPoly._from_run(lo, tuple(out))

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPoly._from_run(self.min_exp + other.min_exp, tuple(out))

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by q**k (k may be negative); the coefficient run is shared, not copied."""
        return LaurentPoly._from_run(self.min_exp + _size("k", k), self.coeffs)

    def substitute_power(self, k: int) -> LaurentPoly:
        """Replace q by q**k, scaling every exponent by k >= 1."""
        k = _size("k", k)
        if k < 1:
            raise ValueError(f"exponent scale must be positive, got {k}")
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        out[::k] = self.coeffs
        return LaurentPoly._from_run(self.min_exp * k, tuple(out))

    def evaluate(self, x: int) -> int:
        """Exact value at an integer x; x must be +-1 when negative exponents occur."""
        x = _size("x", x)
        if x in (1, -1):  # x**e == x**(e % 2)
            return (sum(self.coeffs[0::2]) + x * sum(self.coeffs[1::2])) * x ** (self.min_exp % 2)
        if self.min_exp < 0:
            raise ValueError(
                f"cannot evaluate negative exponents at x={x}; only x = 1 or -1 stay integral"
            )
        return sum(c * x ** (self.min_exp + i) for i, c in enumerate(self.coeffs) if c != 0)

    def __str__(self) -> str:
        # no term holds a "+", so the replace turns only the separators before negative terms
        terms = [_term(str(c), e) for e, c in enumerate(self.coeffs, self.min_exp) if c]
        return " + ".join(terms).replace(" + -", " - ") or "0"

    def to_json(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": list(self.coeffs)}


def _half_step(half: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """First half of [a, b+1] from the first half of [a, b]: c * (1 - q^(a-b)) / (1 - q^(b+1)).

    [a, b] is a palindrome of length size = b(a-b) + 1, so c[e] beyond the
    stored half is c[size - 1 - e], and 0 from size on.  Multiplying by
    1 - q^k turns coefficient e into m[e] = c[e] - c[e-k].  The division by
    1 - q^j is exact and satisfies p[e] = m[e] + p[e-j]: a running sum along
    each residue class of exponents mod j.  Both only look back, so the first
    ceil(L/2) entries of [a, b+1], of length L = (b+1)(a-b-1) + 1, need c
    only below that bound, and stopping the sums there is exact.
    """
    k, j = a - b, b + 1
    size = b * k + 1
    stop = (j * (k - 1) + 2) // 2
    c = _mirror(list(half), size)[:stop]
    c += [0] * (stop - len(c))
    out = c[:]
    out[k:] = map(sub, c[k:], c)
    for r in range(j):
        out[r::j] = accumulate(out[r::j])
    return tuple(out)


class _RowCache:
    """Prefixes [a, 0], ..., [a, k] of q-binomial rows, least recently used first.

    Each q-binomial is a palindrome, so only the first ceil(L/2) of its L
    coefficients are stored, and ``held`` counts those.  A row is built once
    by the product step and later only extended.  The cache is bounded by the
    number of coefficients it holds, and the row used last is always kept.
    One lock guards every lookup and update.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.rows: OrderedDict[int, list[tuple[int, ...]]] = OrderedDict()
        self.held = 0

    def get(self, a: int, b: int) -> tuple[int, ...]:
        """First half of the coefficients of [a, b], for 0 <= b <= a // 2."""
        with self._lock:
            row = self.rows.get(a)
            if row is None:
                row = self.rows[a] = [(1,)]
                self.held += 1
            else:
                self.rows.move_to_end(a)
            while len(row) <= b:
                row.append(_half_step(row[-1], a, len(row) - 1))
                self.held += len(row[-1])
            while self.held > _ROW_CACHE_COEFFS and len(self.rows) > 1:
                _, evicted = self.rows.popitem(last=False)
                self.held -= sum(map(len, evicted))
            return row[b]


_ROWS = _RowCache()


def _half_row(a: int, b: int) -> tuple[tuple[int, ...], int]:
    """(half, L) for [a, b], 0 <= b <= a: its first ceil(L/2) coefficients and its length L.

    [a, b] = [a, a-b] has degree b(a-b), so L = b(a-b) + 1, and it is a
    palindrome: q^(b(a-b)) [a, b](1/q) = [a, b].
    """
    b = min(b, a - b)
    return _ROWS.get(a, b), b * (a - b) + 1


def _pascal_row(a: int) -> list[int]:
    """C(a, 0), ..., C(a, a), for a >= 0.

    The product step of ``_half_step`` at q = 1, exact in integers, builds the
    first half, and the row is its mirror.
    """
    half = list(accumulate(range(a // 2), lambda c, b: c * (a - b) // (b + 1), initial=1))
    return _mirror(half, a + 1)


def _render(
    half: tuple[int, ...], length: int, step: int, offset: int, fmt: str, prefix: str = ""
) -> str:
    """Text of the palindrome ``_mirror(half, length)`` taken in q**step and times q**offset.

    fmt "json" gives ``json.dumps`` of the coefficient list (the offset is
    not part of it), "csv" one ``prefix`` + ``exponent,coefficient`` line per
    term, joined by newlines, and "text" the polynomial's ``str``.  Each
    coefficient of the half is formatted once and the strings are mirrored;
    the step - 1 zeros between terms are joined in as text (json) or skipped.
    The coefficients must be positive, as every q-binomial's are: the text
    and csv forms print no signs and no zero terms.
    """
    texts = _mirror(list(map(str, half)), length)
    if fmt == "json":
        # brackets on the end texts, so the one join is the only copy of a long row
        texts[0] = "[" + texts[0]
        texts[-1] += "]"
        return (", " + "0, " * (step - 1)).join(texts)
    exponents = range(offset, offset + step * length, step)
    if fmt == "csv":
        return "\n".join(map("{}{},{}".format, repeat(prefix, length), exponents, texts))
    return " + ".join(map(_term, texts, exponents))


def gauss_binomial(a: int, b: int) -> LaurentPoly:
    """The q-binomial coefficient: polynomial of degree b*(a-b) with constant term 1.

    Computed without recursion by the exact product step
    ``[a, b+1] = [a, b] * (1 - q**(a-b)) / (1 - q**(b+1))`` up to
    ``min(b, a-b)``, using the symmetry ``[a, b] = [a, a-b]``; only the first
    half of each palindromic row is built and kept, and it is mirrored here.
    Every coefficient is an exact integer.  The coefficient of q**k counts
    partitions of k inside the (a-b) x b box.  a and b go through
    ``operator.index``: a float raises TypeError naming it, a bool reads as 0 or 1.
    """
    a, b = _size("a", a), _size("b", b)
    if b < 0 or b > a:
        raise ValueError(f"require 0 <= b <= a, got a={a}, b={b}")
    return LaurentPoly._from_run(0, _mirror(*_half_row(a, b)))
