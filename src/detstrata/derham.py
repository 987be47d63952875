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

from .characters import _durfee_candidates, _extend, _general_candidates
from .partitions import _conjugate, _in_box, _instance, _size
from .plethysm import _frobenius_weight
from .qpoly import LaurentPoly, _half_row, _mirror
from .spaces import MatrixSpace

# Spaces whose enumerated generating functions stay cached.  A `verify --max 6`
# sweep touches at most 21 spaces of one family (the reduced spaces behind the
# enumerated chi rows are among them), and a mixed sweep of all three families
# up to general(6,6), symmetric(10) and skew(12) touches 42.  An entry holds
# at most (n + 1)(dim + 1) small counts, far less than the pass that made it.
_ENUM_CACHE_SPACES = 64


@lru_cache(maxsize=_ENUM_CACHE_SPACES)
def _enum_all(space: MatrixSpace) -> tuple[LaurentPoly, ...]:
    """Every stratum's enumerated generating function, from its candidate summands.

    Stratum p's candidates come from a rule of ``characters``:
    ``_general_candidates``, or ``_durfee_candidates`` with the Frobenius
    shift of the space's family record.  Their docstrings prove that they
    miss no member and produce no summand twice.  Every candidate is checked
    in full here: it must be a partition inside the summand box and pass the
    stratum's predicate, and a paired partition's conjugate must match the
    spliced weight extension.  A rule that produced too much would therefore
    cost time, never a count.  Nothing relies on the character sets being
    disjoint: each stratum counts its own candidates.
    """
    n, m = space.n, space.m
    counts = [[0] * (space.dim + 1) for _ in space.strata]
    record = space.record
    shift, member = record.shift, record.member
    if shift is None:
        for p in space.strata:
            for mu in _general_candidates(n, m, p):
                if not _in_box(mu, n, m):
                    continue
                w = mu + (0,) * (n - len(mu))
                if member(w, m, p):
                    conj = _conjugate(mu)
                    if conj + (0,) * (m - len(conj)) == _extend(w, n - p, m):
                        counts[p][sum(mu)] += 1
    else:
        step = record.rank_step
        for p in space.strata:
            for r, alpha in _durfee_candidates(n, step * p, shift):
                w = _frobenius_weight(shift, n, r, alpha)
                # w is None when (r, alpha) indexes no summand; |w| = 2 * degree
                if w is not None and member(w, m, p):
                    counts[p][sum(w) // 2] += 1
    return tuple(LaurentPoly._from_run(0, tuple(row)) for row in counts)


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
    p = _instance("space", space, MatrixSpace).check_stratum(p)
    return _enum_all(space)[p]


def _closed_factors(space: MatrixSpace, p: int) -> tuple[int, int, int, int]:
    """(a, b, power, shift): the IC Poincare polynomial of stratum p is [a, b](q**power) * q**shift.

    The family record gives the q-binomial and its power of q; shift is -d_p.
    p is checked first, by ``MatrixSpace.check_stratum``.
    """
    p = space.check_stratum(p)
    record = space.record
    return (*record.gf_binomial(space.n, p), record.gf_power, -record.stratum_dim(space, p))


def _closed_run(space: MatrixSpace, p: int, offset: int) -> LaurentPoly:
    """The IC Poincare polynomial of stratum p times q**offset, as one coefficient run.

    The mirrored half row of [a, b] is written into a run of zeros at step
    ``power`` and wrapped once.  Its end coefficients are 1, so the wrap
    trims nothing.
    """
    a, b, power, shift = _closed_factors(space, p)
    half, length = _half_row(a, b)
    run = [0] * (power * (length - 1) + 1)
    run[::power] = _mirror(half, length)
    return LaurentPoly._from_run(shift + offset, tuple(run))


def inv_derham_gf_closed(space: MatrixSpace, p: int) -> LaurentPoly:
    """Closed form of the same generating function: the IC Poincare polynomial times q**dim."""
    return _closed_run(space, p, _instance("space", space, MatrixSpace).dim)


def ic_poincare(space: MatrixSpace, p: int) -> LaurentPoly:
    """IC Poincare polynomial of the stratum closure, from ``_closed_factors``."""
    return _closed_run(_instance("space", space, MatrixSpace), p, 0)


def euler_char_at_origin(gf: LaurentPoly, dim: int) -> int:
    """Local IC Euler characteristic at the origin of a stratum closure in a space of dimension dim.

    Equals (-1)**dim times the stratum's generating function gf evaluated at q = -1.  dim goes
    through ``operator.index``: a float raises TypeError naming it, a bool reads as 0 or 1, and
    a negative dim is refused.
    """
    gf, dim = _instance("gf", gf, LaurentPoly), _size("dim", dim)
    if dim < 0:
        raise ValueError(f"require dim >= 0, got dim={dim}")
    return (-1) ** dim * gf.evaluate(-1)
