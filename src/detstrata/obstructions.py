"""Local Euler obstructions, microlocal indices, and the index identity X = E * M.

The three invariants of the stratification assemble into upper-triangular
integer matrices indexed by strata: X (local IC Euler characteristics),
E (local Euler obstructions) and the signed microlocal index matrix M with
entries (-1)**d_i m_{i,j}.  Kashiwara's local index formula says X = E * M,
so E is recovered from X by an exact triangular solve.  The chi matrix is
available both in closed form and rebuilt from scratch by partition
enumeration, which is the end-to-end consistency check of the package, and
``verify`` runs the two-route checks of one space, listed once in ``CHECKS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, mul
from typing import Iterator

from .derham import _enum_all, inv_derham_gf_closed, inv_derham_gf_enum
from .partitions import _instance, _ints, _size
from .qpoly import _pascal_row
from .spaces import MatrixSpace


@dataclass(frozen=True)
class StrataMatrix:
    """Square upper-triangular matrix of exact integers, indexed by strata.

    Built from any iterable of rows, each an iterable of ints; a float, a
    string or None raises a TypeError naming ``rows``.  ``rows`` holds them as tuples.  A row of the
    wrong length raises "matrix must be square" before any cell below the
    diagonal is read; a nonzero cell there raises naming the first one in
    row order.  The matrices this module builds itself are square and upper
    triangular by construction and are wrapped by ``_of`` without these checks.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = _ints("rows", self.rows, lambda row: tuple(map(index, row)))
        if any(map(len(rows).__ne__, map(len, rows))):
            raise ValueError("matrix must be square")
        for i, row in enumerate(rows):
            if any(row[:i]):
                j = next(j for j, x in enumerate(row) if x)
                raise ValueError(f"entry ({i},{j}) below the diagonal must be zero")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> StrataMatrix:
        """Wrap a tuple of int-tuple rows built in this module: square and triangular, not re-validated."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        return matrix

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        i, j = _size("i", i), _size("j", j)
        if not (0 <= i < self.order and 0 <= j < self.order):
            raise ValueError(f"cell ({i},{j}) out of range for order {self.order}")
        return self.rows[i][j]

    def __mul__(self, other: StrataMatrix) -> StrataMatrix:
        if not isinstance(other, StrataMatrix):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("matrix orders differ")
        # both factors are upper triangular, so row i of the product is zero left of column i
        cols = tuple(zip(*other.rows))
        return StrataMatrix._of(tuple(
            tuple([0] * i + [sum(map(mul, row, col)) for col in cols[i:]]) for i, row in enumerate(self.rows)
        ))

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def _signs(space: MatrixSpace) -> list[int]:
    """(-1)**d_p for every stratum p, from the family's formula without re-checking p."""
    stratum_dim = space.record.stratum_dim
    return [(-1) ** stratum_dim(space, p) for p in space.strata]


def _binomial_rows(space: MatrixSpace, tops_of, signs: list[int] | None) -> Iterator[tuple[int, ...]]:
    """Rows of a closed matrix whose cells are plain binomials, one row at a time.

    Row i reads the tops ``tops_of(n')`` of the space transverse to stratum
    i, of size n'.  With d tops, cell (i, j), j >= i, is
    C(tops[p % d], p // d) for p = j - i, or 0 where that top is None, times
    signs[j] when signs are given.  So strand r of the row is a prefix of
    Pascal row tops[r].
    """
    order, n, step = space.num_strata, space.n, space.record.rank_step
    for i in range(order):
        tops = tops_of(n - step * i)
        d, row = len(tops), [0] * order
        for r, top in enumerate(tops):
            if top is not None:
                row[i + r :: d] = _pascal_row(top)[: len(range(i + r, order, d))]
        yield tuple(row) if signs is None else tuple(map(mul, signs, row))


def euler_rows(space: MatrixSpace) -> Iterator[tuple[int, ...]]:
    """The rows of ``euler_closed(space)``, one at a time."""
    return _binomial_rows(space, space.record.euler_tops, None)


def chi_rows(space: MatrixSpace) -> Iterator[tuple[int, ...]]:
    """The rows of ``chi_closed(space)``, one at a time."""
    return _binomial_rows(space, space.record.gf_tops, _signs(space))


def _micro_rows(space: MatrixSpace, signs: list[int]) -> Iterator[tuple[int, ...]]:
    """Rows of the microlocal indices, row i times signs[i]: only cells (i, i) and (i, i+1) are set."""
    order, n, above = space.num_strata, space.n, space.record.micro
    for i, sign in enumerate(signs):
        row = [0] * order
        row[i] = sign
        if i + 1 < order:
            row[i + 1] = sign * above(n, i + 1)
        yield tuple(row)


def micro_rows(space: MatrixSpace) -> Iterator[tuple[int, ...]]:
    """The rows of ``micro_indices(space)``, one at a time."""
    return _micro_rows(space, [1] * space.num_strata)


def signed_micro_rows(space: MatrixSpace) -> Iterator[tuple[int, ...]]:
    """The rows of ``signed_micro(space)``, one at a time."""
    return _micro_rows(space, _signs(space))


def micro_indices(space: MatrixSpace) -> StrataMatrix:
    """Unsigned microlocal indices m_{i,j} of the IC modules, from the family record."""
    return StrataMatrix._of(tuple(micro_rows(_instance("space", space, MatrixSpace))))


def signed_micro(space: MatrixSpace) -> StrataMatrix:
    """The matrix M with entries (-1)**d_i m_{i,j} (sign by row index)."""
    return StrataMatrix._of(tuple(signed_micro_rows(_instance("space", space, MatrixSpace))))


def chi_closed(space: MatrixSpace) -> StrataMatrix:
    """Local IC Euler characteristics chi_{i,j} in closed form.

    chi_{i,j} is (-1)**d_j times the family's q-binomial for stratum j - i of
    the space transverse to stratum i, at q = 1 (see ``spaces.Family``): a
    plain binomial, read from one Pascal row per strand of each row.
    """
    return StrataMatrix._of(tuple(chi_rows(_instance("space", space, MatrixSpace))))


def euler_closed(space: MatrixSpace) -> StrataMatrix:
    """Local Euler obstructions e_{i,j} in closed form: the family record's binomial cells."""
    return StrataMatrix._of(tuple(euler_rows(_instance("space", space, MatrixSpace))))


def chi_from_enumeration(space: MatrixSpace) -> StrataMatrix:
    """The chi matrix rebuilt without closed forms.

    Row 0 comes from the enumerated generating functions evaluated at q = -1.
    Row i reduces to row 0 of the smaller space transverse to stratum i
    (the space itself for i = 0), with the sign (-1)**d_i of the ambient
    smooth factor: chi_{i,j} = (-1)**d_i * chi'_{0, j-i}.
    """
    signs = _signs(_instance("space", space, MatrixSpace))
    rows = []
    for i, sign in enumerate(signs[:-1]):
        # the reduced space has order - i strata, all enumerated by one cached pass; chi'_{0,p}
        # is (-1)**dim times stratum p's generating function at q = -1 (``euler_char_at_origin``)
        smaller = space.reduced(i)
        sign = -sign if smaller.dim % 2 else sign
        rows.append((0,) * i + tuple([sign * gf.evaluate(-1) for gf in _enum_all(smaller)]))
    # the slice transverse to the top stratum is a point, so chi'_{0,0} = 1
    rows.append((0,) * (len(signs) - 1) + (signs[-1],))
    return StrataMatrix._of(tuple(rows))


def solve_euler(chi: StrataMatrix, signed: StrataMatrix) -> StrataMatrix:
    """The unique integer matrix E with chi = E * signed, by back-substitution.

    Requires every diagonal entry of ``signed`` to be +-1, which makes its
    inverse integral; the divisions below are then exact.
    """
    chi, signed = _instance("chi", chi, StrataMatrix), _instance("signed", signed, StrataMatrix)
    if chi.order != signed.order:
        raise ValueError("matrix orders differ")
    order, signed_rows = chi.order, signed.rows
    for j in range(order):
        if signed_rows[j][j] not in (1, -1):
            raise ValueError(f"diagonal entry ({j},{j}) = {signed_rows[j][j]} is not +-1")
    rows = []
    for i, chi_row in enumerate(chi.rows):
        row = [0] * order
        for j in range(i, order):
            acc = chi_row[j]
            for k in range(i, j):
                acc -= row[k] * signed_rows[k][j]
            row[j] = acc * signed_rows[j][j]  # diagonal is +-1, so * is 1/
        rows.append(tuple(row))
    return StrataMatrix._of(tuple(rows))


def _first_cell(lhs: StrataMatrix, rhs: StrataMatrix) -> tuple | None:
    """((i, j), lhs cell, rhs cell) at the first differing cell in row order, or None if lhs == rhs.

    The matrices have one order.  Equal ones cost one compare of the row tuples.
    """
    if lhs == rhs:
        return None
    for i, (left, right) in enumerate(zip(lhs.rows, rhs.rows)):
        if left != right:
            j = next(j for j, (a, b) in enumerate(zip(left, right)) if a != b)
            return (i, j), left[j], right[j]


def _derham(space: MatrixSpace) -> tuple | None:
    """Each stratum's enumerated generating function against its closed form, in stratum order."""
    for p in space.strata:
        enum, closed = inv_derham_gf_enum(space, p), inv_derham_gf_closed(space, p)
        if enum != closed:
            return (p,), enum, closed
    return None


def _index_identity(space: MatrixSpace) -> tuple | None:
    """Kashiwara's local index formula chi = E * M on the closed matrices."""
    return _first_cell(chi_closed(space), euler_closed(space) * signed_micro(space))


def _euler(space: MatrixSpace) -> tuple | None:
    """E solved from the enumerated chi against the closed E."""
    return _first_cell(solve_euler(chi_from_enumeration(space), signed_micro(space)), euler_closed(space))


# The two-route checks of ``verify``, in the order it runs them: each is
# (name, (first, second), check), where ``check(space)`` returns None or
# (at, first value, second value), and first and second name those values.
# The checks read the routes from this module's globals at call time.
CHECKS = (
    ("derham", ("enum", "closed"), _derham),
    ("index identity", ("chi", "euler*signed"), _index_identity),
    ("euler", ("enumerated", "closed"), _euler),
)


def verify_index_identity(space: MatrixSpace) -> bool:
    """Whether chi = euler * signed_micro holds entrywise for the closed forms."""
    return _index_identity(_instance("space", space, MatrixSpace)) is None


@dataclass(frozen=True)
class Mismatch:
    """The first disagreement ``verify`` found: the check, where, and the two values.

    ``at`` is where the check found it: a stratum (p,) or a matrix cell (i, j).
    """

    space: MatrixSpace
    check: str  # a name in CHECKS
    at: tuple[int, ...]
    first: object
    second: object

    def __str__(self) -> str:
        place = f"p={self.at[0]}" if len(self.at) == 1 else f"cell ({self.at[0]},{self.at[1]})"
        first, second = {name: compared for name, compared, _ in CHECKS}[self.check]
        return f"{self.space} {self.check} {place}: {first}={self.first}, {second}={self.second}"


def verify(space: MatrixSpace) -> Mismatch | None:
    """Run the checks of ``CHECKS`` on one space in order; return the first disagreement, or None."""
    _instance("space", space, MatrixSpace)
    for name, _, check in CHECKS:
        found = check(space)
        if found is not None:
            return Mismatch(space, name, *found)
    return None
