"""Schur-functor contents of exterior powers of F1 (x) F2, Sym^2 F and wedge^2 F.

The three enumerations below list the partitions indexing the irreducible
summands of the i-th exterior power of the three spaces an n x n (or m x n)
matrix space is built from.  The tensor-product case is Cauchy's formula; the
other two are the classical plethysms, one Frobenius form with a shift of 1
(Sym^2) or 0 (wedge^2), parametrized by the Durfee size r of the output
partition together with an auxiliary partition alpha packed around the
Durfee square.
"""

from __future__ import annotations

from .partitions import (Partition, _box_partitions, _conjugate, _in_box, _instance, _size,
                         enumerate_in_rectangle)
from .spaces import MatrixSpace


def cauchy_exterior(m: int, n: int, i: int) -> list[Partition]:
    """Partitions mu indexing wedge^i(F1 (x) F2), dim F1 = m >= dim F2 = n.

    The i-th exterior power decomposes as the sum of S_{mu'}F1 (x) S_mu F2
    over partitions mu of i; a summand survives exactly when mu has at most
    n parts and mu' at most m parts, i.e. mu fits in the n x m box.
    Returned in decreasing lexicographic order.
    """
    return _exterior_partitions(MatrixSpace.general(m, n), i)


def _frobenius_weight(shift: int, n: int, r: int, alpha: tuple[int, ...]) -> tuple[int, ...] | None:
    """The length-n partition of the summand indexed by (r, alpha), raw.

    Shift 1 is wedge(Sym^2 F), shift 0 is wedge(wedge^2 F).  Rows
    r + shift + alpha_j for j <= r + 1 - shift, with alpha_{r+1} = 0 (so for
    shift 0 row r + 1 is r), then the conjugate of alpha, then zeros: in
    Frobenius notation (b_1 + 2 shift - 1, .., b_r + 2 shift - 1 | b_1, .., b_r)
    with b_j = r + alpha_j - j + 1 - shift.  None unless alpha is a partition
    inside the r x (n - r - 1 + shift) box, so a pair that indexes no
    summand never yields a weight.
    """
    if not _in_box(alpha, r, n - r - 1 + shift):
        return None
    arm = tuple(r + shift + a for a in alpha) + (r + shift,) * (r + 1 - shift - len(alpha))
    legs = _conjugate(alpha)
    return arm + legs + (0,) * (n - len(arm) - len(legs))


def _exterior_weights(shift: int, n: int, i: int) -> list[tuple[int, ...]]:
    """_frobenius_weight(shift, n, r, alpha) of each degree-i pair, unsorted."""
    out = []
    r = 0
    while r * (r + 1) <= 2 * i:
        size = i - r * (r + 1) // 2  # r^2 + r is even, so |alpha| is a whole number
        alphas = _box_partitions(r, n - r - 1 + shift, size, size)
        out += [_frobenius_weight(shift, n, r, alpha) for alpha in alphas]
        r += 1
    return out


def _exterior_partitions(space: MatrixSpace, i: int) -> list[Partition]:
    """The partitions indexing the degree-i summands of the space's exterior algebra, decreasing.

    With the record's shift None these are the partitions of i in the n x m
    box (Cauchy's formula); otherwise the Frobenius weights at that shift.
    i goes through ``operator.index`` (a float raises TypeError naming it, a
    bool reads as 0 or 1) and must lie in 0..dim.
    """
    i = _size("i", i)
    if not 0 <= i <= space.dim:
        raise ValueError(f"require 0 <= i <= {space.dim}, the dimension of {space}, got i={i}")
    shift = space.record.shift
    if shift is None:
        return enumerate_in_rectangle(space.n, space.m, i)
    return sorted((Partition(w) for w in _exterior_weights(shift, space.n, i)), reverse=True)


def symmetric_exterior_partitions(n: int, i: int) -> list[Partition]:
    """Partitions of 2i indexing wedge^i(Sym^2 F), dim F = n.

    Each summand corresponds to a pair (r, alpha) with alpha inside the
    r x (n - r) box and r^2 + r + 2|alpha| = 2i; the partition has first r
    rows r + 1 + alpha_j and the conjugate of alpha below the Durfee square.
    """
    return _exterior_partitions(MatrixSpace.symmetric(n), i)


def skew_exterior_partitions(n: int, i: int) -> list[Partition]:
    """Partitions of 2i indexing wedge^i(wedge^2 F), dim F = n >= 2.

    Each summand corresponds to a pair (r, alpha) with alpha inside the
    r x (n - r - 1) box and r^2 + r + 2|alpha| = 2i; the partition has first
    r rows r + alpha_j, then a single row of length r, then the conjugate of
    alpha.
    """
    return _exterior_partitions(MatrixSpace.skew(n), i)


def schur_dimension(p: Partition, N: int) -> int:
    """dim S_p(C^N) by the hook content formula.

    When p has more than N parts, box (N, 0) contributes the factor
    N + 0 - N, so the dimension is 0.
    """
    p, N = _instance("p", p, Partition), _size("N", N)
    if N < 0:
        raise ValueError(f"require N >= 0, got N={N}")
    conj = _conjugate(p.parts)
    num = 1
    den = 1
    for i, row in enumerate(p.parts):
        for j in range(row):
            num *= N + j - i
            den *= (row - j) + (conj[j] - i) - 1
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"hook content product not integral for {p}, N={N}")
    return dim
