"""The three families of matrix spaces: one record per family, and the spaces themselves.

Everything that differs between general, symmetric and skew-symmetric
matrices lives in the ``Family`` records of ``FAMILIES``: dimensions and
strata, the Frobenius shift and member predicate of the enumeration route,
the closed q-binomial parameters, and the cells of the strata matrices.  The
rest of the package reads a space's record and never branches on the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .characters import _member_general, _member_skew, _member_symmetric
from .partitions import _size

GENERAL = "general"
SYMMETRIC = "symmetric"
SKEW = "skew"


def epsilon_symmetric(n: int, p: int) -> int:
    """The correction bit for symmetric spaces: 1 iff p is even and n is odd."""
    if not 0 <= p <= n:
        raise ValueError(f"require 0 <= p <= n, got p={p}, n={n}")
    return 1 if p % 2 == 0 and n % 2 == 1 else 0


@dataclass(frozen=True)
class Family:
    """What the package knows about one family of matrix spaces; its functions check nothing.

    Stratum p holds the matrices of rank ``rank_step * p``, so a space has
    ``n // rank_step + 1`` strata and the space transverse to stratum i is
    the same family with every size less ``rank_step * i``.

    Enumeration route: ``member(w, m, p)`` tests a raw length-n weight
    against stratum p's character set, with m the space's row count (None,
    and ignored, outside the general family).  With ``shift`` None the
    summands are the partitions of ``_general_candidates(n, m, p)``, paired
    with their conjugates.  Otherwise ``shift`` is the Frobenius shift of the
    summands, 1 for wedge(Sym^2 F) and 0 for wedge(wedge^2 F):
    ``_durfee_candidates(n, rank_step * p, shift)`` gives pairs (r, alpha)
    and ``_frobenius_weight(shift, n, r, alpha)`` their partition (None when
    the pair indexes no summand).

    Closed route: a space of size n has d = len(tops) strands of strata, with
    ``tops = gf_tops(n)``, and stratum p's generating function is the
    q-binomial [tops[p % d], p // d] (``gf_binomial(n, p)``) in
    ``q**gf_power``, shifted by the codimension dim - d_p.  So chi_{i,j} is
    (-1)**d_j times the plain binomial of stratum j - i of the space
    transverse to stratum i.  In the same way e_{i,j} = e_{0,j-i} of that
    transverse space, and e_{0,p} = C(tops[p % d], p // d) with
    ``tops = euler_tops(n)``, or 0 where that top is None.  So every row of
    either matrix interleaves d prefixes of Pascal rows.  ``micro(n, j)`` is
    the microlocal index m_{j-1,j}; the other m_{i,j} are those of the
    identity.
    """

    token: str  # the name on the command line
    takes_m: bool  # spaces have a row count m >= n besides n
    min_n: int
    rank_step: int
    stratum_dim: Callable[[MatrixSpace, int], int]  # d_p, of the closure of stratum p
    shift: int | None  # Frobenius shift of the exterior-power summands, None for general
    member: Callable[[tuple[int, ...], int | None, int], bool]
    gf_tops: Callable[[int], tuple[int, ...]]
    gf_power: int
    euler_tops: Callable[[int], tuple[int | None, ...]]
    micro: Callable[[int, int], int]

    def gf_binomial(self, n: int, p: int) -> tuple[int, int]:
        """(a, b): stratum p's generating function is [a, b] in ``q**gf_power``, up to a shift."""
        tops = self.gf_tops(n)
        return tops[p % len(tops)], p // len(tops)


FAMILIES: dict[str, Family] = {
    GENERAL: Family(
        token="general", takes_m=True, min_n=1, rank_step=1,
        stratum_dim=lambda s, p: p * (s.m + s.n - p),
        shift=None, member=_member_general,
        gf_tops=lambda n: (n,), gf_power=2,
        euler_tops=lambda n: (n,),
        micro=lambda n, j: 0,
    ),
    SYMMETRIC: Family(
        token="symm", takes_m=False, min_n=1, rank_step=1,
        stratum_dim=lambda s, p: p * (2 * s.n - p + 1) // 2,
        shift=1, member=_member_symmetric,
        # even strata read the top n // 2 + epsilon_symmetric(n, p), odd ones n // 2
        gf_tops=lambda n: ((n + 1) // 2, n // 2), gf_power=4,
        # for even n the odd strata have e_{0,p} = 0
        euler_tops=lambda n: (n // 2, n // 2 if n % 2 else None),
        # the cycle of stratum j picks up the conormal variety of stratum j-1 iff n-j is odd
        micro=lambda n, j: (n - j) % 2,
    ),
    SKEW: Family(
        token="skew", takes_m=False, min_n=2, rank_step=2,
        stratum_dim=lambda s, p: p * (2 * s.n - 2 * p - 1),
        shift=0, member=_member_skew,
        gf_tops=lambda n: (n // 2,), gf_power=4,
        euler_tops=lambda n: (n // 2,),
        micro=lambda n, j: 0,
    ),
}


@dataclass(frozen=True)
class MatrixSpace:
    """One of: m x n matrices (m >= n), symmetric n x n, or skew-symmetric n x n.

    Strata are the loci of fixed rank, numbered as in ``Family``.  The sizes
    go through ``operator.index`` and are stored as plain ints: a float, a
    string or None raises TypeError naming the argument.  A bool is an int,
    so it is accepted as 0 or 1 (``symmetric(True) == symmetric(1)``).
    """

    family: str
    n: int
    m: int | None = None

    def __post_init__(self) -> None:
        record = FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if record is None:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "n", _size("n", self.n))
        if self.m is not None:
            object.__setattr__(self, "m", _size("m", self.m))
        if record.takes_m:
            if self.m is None or not self.m >= self.n >= record.min_n:
                raise ValueError(
                    f"{self.family} family needs m >= n >= {record.min_n}, got m={self.m}, n={self.n}"
                )
        elif self.m is not None:
            raise ValueError(f"{self.family} family takes a single size n")
        elif self.n < record.min_n:
            raise ValueError(f"{self.family} family needs n >= {record.min_n}, got n={self.n}")

    @classmethod
    def general(cls, m: int, n: int) -> MatrixSpace:
        return cls(GENERAL, n, m)

    @classmethod
    def symmetric(cls, n: int) -> MatrixSpace:
        return cls(SYMMETRIC, n)

    @classmethod
    def skew(cls, n: int) -> MatrixSpace:
        return cls(SKEW, n)

    @property
    def record(self) -> Family:
        return FAMILIES[self.family]

    @property
    def dim(self) -> int:
        """Dimension of the ambient affine space, the closure of the top stratum."""
        return self.record.stratum_dim(self, self.num_strata - 1)

    @property
    def num_strata(self) -> int:
        return self.n // self.record.rank_step + 1

    @property
    def strata(self) -> range:
        return range(self.num_strata)

    def check_stratum(self, p: int) -> int:
        """p as a plain int, when it numbers a stratum of this space.

        p goes through ``operator.index`` like the sizes: a float or a string
        raises TypeError, a bool reads as 0 or 1.  Out of range is ValueError.
        """
        p = _size("p", p)
        if not 0 <= p < self.num_strata:
            raise ValueError(f"stratum {p} out of range for {self}: 0..{self.num_strata - 1}")
        return p

    def stratum_dim(self, p: int) -> int:
        """Dimension d_p of the closure of stratum p."""
        return self.record.stratum_dim(self, self.check_stratum(p))

    def reduced(self, i: int) -> MatrixSpace:
        """The smaller space seen transverse to stratum i, for 0 <= i < the top stratum.

        The slice transverse to the top stratum is a point, which is no space.
        """
        i = _size("i", i)
        if not 0 <= i < self.num_strata - 1:
            raise ValueError(f"{self} has reduced spaces for 0 <= i <= {self.num_strata - 2}, got i={i}")
        k = self.record.rank_step * i
        return MatrixSpace(self.family, self.n - k, None if self.m is None else self.m - k)

    def params(self) -> dict[str, int]:
        return {"n": self.n} if self.m is None else {"m": self.m, "n": self.n}

    def __str__(self) -> str:
        sizes = self.n if self.m is None else f"{self.m},{self.n}"
        return f"{self.family}({sizes})"


def spaces_up_to(family: str, bound: int) -> Iterator[MatrixSpace]:
    """Every space of the family with no size above bound, by n and then by m, one at a time.

    There are none when bound is below the family's ``min_n``.
    """
    record = FAMILIES[family]
    for n in range(record.min_n, bound + 1):
        if record.takes_m:
            for m in range(n, bound + 1):
                yield MatrixSpace(family, n, m)
        else:
            yield MatrixSpace(family, n)
