"""Characters of the simple equivariant D-modules attached to rank strata.

Each stratum closure V_p carries a simple equivariant D-module whose
decomposition into irreducibles is multiplicity free and cut out by explicit
inequalities and parity conditions on dominant weights.  The predicates below
implement those conditions, with the uniform boundary convention that an
entry indexed below 1 reads +infinity and one indexed past the length reads
-infinity, which makes the extreme strata (the whole space and the origin)
come out right.
"""

from __future__ import annotations

import math

from .partitions import IntegerWeight
from .spaces import GENERAL, SYMMETRIC, MatrixSpace


def _entry(w: tuple[int, ...], i: int) -> float:
    """1-indexed entry with +inf below index 1 and -inf past the end."""
    if i < 1:
        return math.inf
    if i > len(w):
        return -math.inf
    return w[i - 1]


def _extend(w: tuple[int, ...], s: int, m: int) -> tuple[int, ...]:
    """Entries of lambda_extension(w, s, m) for a raw tuple, without any check."""
    d = m - len(w)
    return tuple(a - d for a in w[:s]) + (s,) * d + w[s:]


def lambda_extension(w: IntegerWeight, s: int, m: int) -> IntegerWeight:
    """Extend a length-n weight to length m >= n, splicing s copies of s.

    The result is (w_1 - (m-n), ..., w_s - (m-n), s, ..., s, w_{s+1}, ..., w_n)
    with m - n copies of s in the middle.  Raises when the result fails to be
    weakly decreasing, which signals an input outside the natural domain.
    """
    n = len(w)
    if not 0 <= s <= n <= m:
        raise ValueError(f"require 0 <= s <= n <= m, got s={s}, n={n}, m={m}")
    entries = _extend(w.entries, s, m)
    for a, b in zip(entries, entries[1:]):
        if a < b:
            raise ValueError(f"extension of {w} with s={s}, m={m} is not dominant: {entries}")
    return IntegerWeight(entries)


def _member_general(w: tuple[int, ...], m: int, p: int) -> bool:
    """member_general on a raw tuple, for 0 <= p <= len(w) <= m (not checked).

    The boundary convention is spelled out: entry n - p is +inf when p = n,
    and entry n - p + 1 is -inf when p = 0.
    """
    k = len(w) - p
    return (k == 0 or w[k - 1] >= m - p) and (p == 0 or w[k] <= k)


def member_general(w: IntegerWeight, m: int, p: int) -> bool:
    """Whether w (length n) lies in the stratum-p character set for m x n matrices.

    The conditions are w_{n-p} >= m - p and w_{n-p+1} <= n - p.
    """
    n = len(w)
    if not 0 <= p <= n <= m:
        raise ValueError(f"require 0 <= p <= n <= m, got p={p}, n={n}, m={m}")
    return _member_general(w.entries, m, p)


def _member_symmetric(w: tuple[int, ...], p: int) -> bool:
    """member_symmetric on a raw tuple, for 0 <= p <= len(w) (not checked)."""
    n = len(w)
    k = n - p
    if k % 2 == 1:
        if any(a % 2 != 0 for a in w):
            return False
        return _entry(w, k) >= k + 1 and _entry(w, k + 2) <= k + 1
    if any(w[i] % 2 != 1 for i in range(k)):
        return False
    if any(w[i] % 2 != 0 for i in range(k, n)):
        return False
    return _entry(w, k) >= k + 1 and _entry(w, k + 1) <= k


def member_symmetric(w: IntegerWeight, p: int) -> bool:
    """Whether w lies in the stratum-p character set for symmetric n x n matrices.

    For n - p odd: all entries even, w_{n-p} >= n - p + 1 >= w_{n-p+2}.
    For n - p even: entries up to index n - p odd, the rest even,
    w_{n-p} >= n - p + 1 and w_{n-p+1} <= n - p.
    """
    n = len(w)
    if not 0 <= p <= n:
        raise ValueError(f"require 0 <= p <= n, got p={p}, n={n}")
    return _member_symmetric(w.entries, p)


def _member_skew(w: tuple[int, ...], p: int) -> bool:
    """member_skew on a raw tuple, for 0 <= p <= len(w) // 2 (not checked)."""
    n = len(w)
    half = n // 2
    k = n - 2 * p
    if n % 2 == 0:
        if any(w[2 * i] != w[2 * i + 1] for i in range(half)):
            return False
        return _entry(w, k) >= k - 1 and _entry(w, k + 1) <= k
    if _entry(w, k) != k - 1:
        return False
    for i in range(1, half - p + 1):
        if w[2 * i - 2] != w[2 * i - 1]:
            return False
    for i in range(half - p + 1, half + 1):
        if w[2 * i - 1] != w[2 * i]:
            return False
    return True


def member_skew(w: IntegerWeight, p: int) -> bool:
    """Whether w lies in the stratum-p character set for skew-symmetric n x n matrices.

    Stratum p holds rank 2p.  For n even the entries pair up as
    w_1 = w_2, w_3 = w_4, ... with w_{n-2p} >= n - 2p - 1 and
    w_{n-2p+1} <= n - 2p.  For n odd the pivot entry is pinned,
    w_{n-2p} = n - 2p - 1, the pairing applies above it and shifts by one
    below it.
    """
    n = len(w)
    if not 0 <= p <= n // 2:
        raise ValueError(f"require 0 <= p <= floor(n/2), got p={p}, n={n}")
    return _member_skew(w.entries, p)


def multiplicity(space: MatrixSpace, p: int, w: IntegerWeight) -> int:
    """Multiplicity (0 or 1) of the irreducible with highest weight w in the stratum-p module."""
    space.check_stratum(p)
    if len(w) != space.n:
        raise ValueError(f"weight length {len(w)} does not match n={space.n}")
    if space.family == GENERAL:
        accepted = member_general(w, space.m, p)
    elif space.family == SYMMETRIC:
        accepted = member_symmetric(w, p)
    else:
        accepted = member_skew(w, p)
    return 1 if accepted else 0
