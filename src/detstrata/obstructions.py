"""Local Euler obstructions, microlocal indices, and the index identity X = E * M.

The three invariants of the stratification assemble into upper-triangular
integer matrices indexed by strata: X (local IC Euler characteristics),
E (local Euler obstructions) and the signed microlocal index matrix M with
entries (-1)**d_i m_{i,j}.  Kashiwara's local index formula says X = E * M,
so E is recovered from X by an exact triangular solve.  The chi matrix is
available both in closed form and rebuilt from scratch by partition
enumeration, which is the end-to-end consistency check of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .derham import euler_char_at_origin
from .spaces import GENERAL, SYMMETRIC, MatrixSpace


@dataclass(frozen=True)
class StrataMatrix:
    """Square upper-triangular matrix of exact integers, indexed by strata."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        order = len(rows)
        for row in rows:
            if len(row) != order:
                raise ValueError("matrix must be square")
        for i in range(order):
            for j in range(i):
                if rows[i][j] != 0:
                    raise ValueError(f"entry ({i},{j}) below the diagonal must be zero")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, order: int) -> StrataMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(order)) for i in range(order)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> StrataMatrix:
        return cls(tuple(tuple(row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def __mul__(self, other: StrataMatrix) -> StrataMatrix:
        if self.order != other.order:
            raise ValueError("matrix orders differ")
        n = self.order
        return StrataMatrix(
            tuple(
                tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(i, j + 1)) for j in range(n))
                for i in range(n)
            )
        )

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def micro_indices(space: MatrixSpace) -> StrataMatrix:
    """Unsigned microlocal indices m_{i,j} of the IC modules.

    Characteristic cycles are irreducible for general and skew-symmetric
    matrices (identity matrix).  For symmetric matrices the cycle of stratum
    j picks up the conormal variety of stratum j-1 exactly when n - j is odd.
    """
    order = space.num_strata
    rows = [[1 if i == j else 0 for j in range(order)] for i in range(order)]
    if space.family == SYMMETRIC:
        for j in range(1, order):
            if (space.n - j) % 2 == 1:
                rows[j - 1][j] = 1
    return StrataMatrix.from_rows(rows)


def signed_micro(space: MatrixSpace) -> StrataMatrix:
    """The matrix M with entries (-1)**d_i m_{i,j} (sign by row index)."""
    unsigned = micro_indices(space)
    return StrataMatrix.from_rows(
        tuple(
            tuple((-1) ** space.stratum_dim(i) * unsigned.entry(i, j) for j in range(unsigned.order))
            for i in range(unsigned.order)
        )
    )


def chi_closed(space: MatrixSpace) -> StrataMatrix:
    """Local IC Euler characteristics chi_{i,j} in closed form.

    general:    (-1)**d_j * binom(n-i, j-i)
    symmetric:  (-1)**d_j * binom(floor((n-i)/2) + eps, floor((j-i)/2)),
                eps = 1 iff j-i even and n-i odd
    skew:       (-1)**d_j * binom(floor(n/2)-i, j-i)
    """
    order = space.num_strata
    n = space.n

    def value(i: int, j: int) -> int:
        if i > j:
            return 0
        sign = (-1) ** space.stratum_dim(j)
        if space.family == GENERAL:
            return sign * comb(n - i, j - i)
        if space.family == SYMMETRIC:
            eps = 1 if (j - i) % 2 == 0 and (n - i) % 2 == 1 else 0
            return sign * comb((n - i) // 2 + eps, (j - i) // 2)
        return sign * comb(n // 2 - i, j - i)

    return StrataMatrix.from_rows(
        tuple(tuple(value(i, j) for j in range(order)) for i in range(order))
    )


def euler_closed(space: MatrixSpace) -> StrataMatrix:
    """Local Euler obstructions e_{i,j} in closed form.

    general:    binom(n-i, j-i)
    symmetric:  0 when n-i is even and n-j odd, else
                binom(floor((n-i)/2), floor((j-i)/2))
    skew:       binom(floor(n/2)-i, j-i)
    """
    order = space.num_strata
    n = space.n

    def value(i: int, j: int) -> int:
        if i > j:
            return 0
        if space.family == GENERAL:
            return comb(n - i, j - i)
        if space.family == SYMMETRIC:
            if (n - i) % 2 == 0 and (n - j) % 2 == 1:
                return 0
            return comb((n - i) // 2, (j - i) // 2)
        return comb(n // 2 - i, j - i)

    return StrataMatrix.from_rows(
        tuple(tuple(value(i, j) for j in range(order)) for i in range(order))
    )


def _reduced_space(space: MatrixSpace, i: int) -> MatrixSpace:
    """The smaller space seen transverse to stratum i (valid for 0 < i < top stratum)."""
    if space.family == GENERAL:
        return MatrixSpace.general(space.m - i, space.n - i)
    if space.family == SYMMETRIC:
        return MatrixSpace.symmetric(space.n - i)
    return MatrixSpace.skew(space.n - 2 * i)


def chi_from_enumeration(space: MatrixSpace) -> StrataMatrix:
    """The chi matrix rebuilt without closed forms.

    Row 0 comes from the enumerated generating functions evaluated at q = -1.
    Row i > 0 reduces to row 0 of the smaller space transverse to stratum i,
    with the sign (-1)**d_i of the ambient smooth factor:
    chi_{i,j} = (-1)**d_i * chi'_{0, j-i}.
    """
    order = space.num_strata
    rows = [[0] * order for _ in range(order)]
    for j in range(order):
        rows[0][j] = euler_char_at_origin(space, j, "enum")
    for i in range(1, order):
        sign = (-1) ** space.stratum_dim(i)
        # transverse slice of the diagonal cell is a point, chi'_{0,0} = 1
        rows[i][i] = sign
        if i < order - 1:
            smaller = _reduced_space(space, i)
            for j in range(i + 1, order):
                rows[i][j] = sign * euler_char_at_origin(smaller, j - i, "enum")
    return StrataMatrix.from_rows(rows)


def solve_euler(chi: StrataMatrix, signed: StrataMatrix) -> StrataMatrix:
    """The unique integer matrix E with chi = E * signed, by back-substitution.

    Requires every diagonal entry of ``signed`` to be +-1, which makes its
    inverse integral; the divisions below are then exact.
    """
    if chi.order != signed.order:
        raise ValueError("matrix orders differ")
    order = chi.order
    for j in range(order):
        if signed.entry(j, j) not in (1, -1):
            raise ValueError(f"diagonal entry ({j},{j}) = {signed.entry(j, j)} is not +-1")
    rows = [[0] * order for _ in range(order)]
    for i in range(order):
        for j in range(i, order):
            acc = chi.entry(i, j)
            for k in range(i, j):
                acc -= rows[i][k] * signed.entry(k, j)
            rows[i][j] = acc * signed.entry(j, j)  # diagonal is +-1, so * is 1/
    return StrataMatrix.from_rows(rows)


def verify_index_identity(space: MatrixSpace) -> bool:
    """Whether chi = euler * signed_micro holds entrywise for the closed forms."""
    return chi_closed(space) == euler_closed(space) * signed_micro(space)
