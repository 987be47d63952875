"""Invariant de Rham generating functions, IC Poincare polynomials, local Euler characteristics.

For each stratum module the generating function sum_i dim(Omega^i (x) D_p)^G q^i
is computed by two independent routes: counting matches between the exterior
power decomposition and the module's character (enumeration), and the closed
q-binomial product formula.  The two must agree; the parity gaps in the
result force all differentials in the invariant de Rham complex to vanish,
so the same polynomial records de Rham cohomology and, after a shift,
intersection cohomology.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .characters import (
    _extend,
    _general_candidates,
    _member_general,
    _member_skew,
    _member_symmetric,
    _skew_candidates,
    _symmetric_candidates,
)
from .partitions import _conjugate, _in_box
from .plethysm import _skew_weight, _symmetric_weight
from .qpoly import LaurentPoly, gauss_binomial
from .spaces import GENERAL, SYMMETRIC, MatrixSpace

# Spaces whose enumerated generating functions stay cached.  A `verify --max 6`
# sweep touches at most 21 spaces of one family (the reduced spaces behind the
# enumerated chi rows are among them), and a mixed sweep of all three families
# up to general(6,6), symmetric(10) and skew(12) touches 42.  An entry holds
# at most (n + 1)(dim + 1) small counts, far less than the pass that made it.
_ENUM_CACHE_SPACES = 64


def epsilon_symmetric(n: int, p: int) -> int:
    """The correction bit for symmetric spaces: 1 iff p is even and n is odd."""
    if not 0 <= p <= n:
        raise ValueError(f"require 0 <= p <= n, got p={p}, n={n}")
    return 1 if p % 2 == 0 and n % 2 == 1 else 0


@lru_cache(maxsize=_ENUM_CACHE_SPACES)
def _enum_all(space: MatrixSpace) -> tuple[LaurentPoly, ...]:
    """Every stratum's enumerated generating function, from its candidate summands.

    Stratum p's candidates come from its rule in ``characters`` (for general
    matrices ``_general_candidates``, else ``_symmetric_candidates`` or
    ``_skew_candidates``), which expands only summands that can meet the
    stratum's inequalities and parity conditions; each rule's docstring
    proves it misses no member and produces no summand twice.  Every
    candidate is checked in full here: it must be a partition inside the
    summand box, pass the stratum's predicate, and for general matrices its
    conjugate must match the spliced weight extension.  A rule that produced
    too much would therefore cost time, never a count.  Nothing relies on the
    character sets being disjoint: each stratum counts its own candidates.
    """
    n = space.n
    counts = [[0] * (space.dim + 1) for _ in space.strata]
    if space.family == GENERAL:
        m = space.m
        for p in space.strata:
            for mu in _general_candidates(n, m, p):
                if not _in_box(mu, n, m):
                    continue
                w = mu + (0,) * (n - len(mu))
                if _member_general(w, m, p):
                    conj = _conjugate(mu)
                    if conj + (0,) * (m - len(conj)) == _extend(w, n - p, m):
                        counts[p][sum(mu)] += 1
    else:
        if space.family == SYMMETRIC:
            candidates, weight, member = _symmetric_candidates, _symmetric_weight, _member_symmetric
        else:
            candidates, weight, member = _skew_candidates, _skew_weight, _member_skew
        for p in space.strata:
            for r, alpha in candidates(n, p):
                w = weight(n, r, alpha)
                # w is None when (r, alpha) indexes no summand; |w| = 2 * degree
                if w is not None and member(w, p):
                    counts[p][sum(w) // 2] += 1
    return tuple(LaurentPoly(0, tuple(row)) for row in counts)


def inv_derham_gf_enum(space: MatrixSpace, p: int) -> LaurentPoly:
    """Generating function of invariant form degrees, by direct enumeration.

    The coefficient of q^i counts the exterior-power summands in degree i
    whose partition lies in the stratum-p character set (for general matrices
    the conjugate must additionally match the spliced weight extension, which
    pairs the two tensor factors).  Only the summands that can meet the
    stratum's conditions are generated, and each is checked against the full
    predicate.  All strata of a space come from one pass, kept in a per-space
    cache of bounded size.
    """
    space.check_stratum(p)
    return _enum_all(space)[p]


def inv_derham_gf_closed(space: MatrixSpace, p: int) -> LaurentPoly:
    """Closed form of the same generating function: a q-binomial times a power of q.

    general(m,n):  [n, p] in q^2, shifted by (m-p)(n-p)
    symmetric(n):  [floor(n/2)+eps, floor(p/2)] in q^4, shifted by binom(n-p+1, 2)
    skew(n):       [floor(n/2), p] in q^4, shifted by binom(n,2) - p(2n-2p-1)
    """
    space.check_stratum(p)
    n = space.n
    if space.family == GENERAL:
        return gauss_binomial(n, p).substitute_power(2).shift((space.m - p) * (n - p))
    if space.family == SYMMETRIC:
        half = n // 2
        return (
            gauss_binomial(half + epsilon_symmetric(n, p), p // 2)
            .substitute_power(4)
            .shift(comb(n - p + 1, 2))
        )
    half = n // 2
    return (
        gauss_binomial(half, p)
        .substitute_power(4)
        .shift(comb(n, 2) - p * (2 * n - 2 * p - 1))
    )


def ic_poincare(space: MatrixSpace, p: int) -> LaurentPoly:
    """IC Poincare polynomial of the stratum closure: the generating function shifted by -dim."""
    return inv_derham_gf_closed(space, p).shift(-space.dim)


def euler_char_at_origin(space: MatrixSpace, p: int, method: str = "closed") -> int:
    """Local IC Euler characteristic of stratum closure p at the origin.

    Equals (-1)**dim times the generating function evaluated at q = -1;
    ``method`` picks which of the two routes produces the polynomial.
    """
    if method == "enum":
        gf = inv_derham_gf_enum(space, p)
    elif method == "closed":
        gf = inv_derham_gf_closed(space, p)
    else:
        raise ValueError(f"method must be 'enum' or 'closed', got {method!r}")
    return (-1) ** space.dim * gf.evaluate(-1)
