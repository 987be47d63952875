"""Characters of the simple equivariant D-modules attached to rank strata.

Each stratum closure V_p carries a simple equivariant D-module whose
decomposition into irreducibles is multiplicity free and cut out by explicit
inequalities and parity conditions on dominant weights.  The predicates below
implement those conditions.  An inequality on an entry indexed below 1 holds
(the entry reads +infinity) and one on an entry indexed past the length
holds when it bounds the entry from above (the entry reads -infinity); each
predicate writes these boundaries as integer tests on the index, which makes
the extreme strata (the whole space and the origin) come out right.

Candidate rules yield the summands that can satisfy stratum p's conditions,
derived from those conditions alone, with the argument that no member is
missed and no summand is produced twice written in the rule's docstring:
``_general_candidates`` for general matrices, and ``_durfee_candidates`` for
symmetric and skew-symmetric ones, whose summands share one Frobenius form.
The enumeration route still applies the full predicate to every candidate,
so a rule that produced too much would cost time, never a count.  It counts
each candidate as it is yielded, so it holds one candidate per stratum at a
time, never the stratum's whole candidate set.  Each rule walks its box of
legs or halved partitions once (``partitions._box_partitions``), which holds
one partition at a time, so no size class is listed either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .partitions import IntegerWeight, _box_partitions, _conjugate, _doubled_partitions, _instance, _size

if TYPE_CHECKING:
    from .spaces import MatrixSpace


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
    w, s, m = _instance("w", w, IntegerWeight), _size("s", s), _size("m", m)
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


def _general_candidates(n: int, m: int, p: int) -> Iterator[tuple[int, ...]]:
    """Candidate summands mu (raw parts) of wedge(F1 (x) F2) for stratum p of m x n matrices.

    Soundness.  Let s = n - p and d = m - n.  A member mu has w_s >= m - p,
    so its first s rows contain an s x (m - p) rectangle, and w_{s+1} <= s,
    so its rows below row s form a partition ``leg`` inside the p x s box.
    Write row j <= s as m - p + arm_j; arm lies in the s x p box, since
    mu_1 <= m.  Because m - p >= s >= leg_1, column j of mu has length
    s + leg'_j for j <= s, length s for s < j <= m - p, and arm'_t for
    j = m - p + t.  The extension _extend(w, s, m) has entries
    w_j - d = s + arm_j for j <= s, then d entries s, then leg_1 .. leg_p.
    The pairing conj(mu) == _extend(w, s, m) therefore says arm_j = leg'_j
    for j <= s (and, equivalently, arm'_t = leg_t): the arm is the conjugate
    of the leg.  So every member is m - p + leg'_j (j <= s) followed by leg,
    for one leg in the p x s box; each leg is used once and gives a
    different mu, so no summand is produced twice.
    """
    s, top = n - p, m - p
    for leg in _box_partitions(p, s, 0, p * s):
        arm = _conjugate(leg)
        yield tuple(map(top.__add__, arm)) + (top,) * (s - len(arm)) + leg


def member_general(w: IntegerWeight, m: int, p: int) -> bool:
    """Whether w (length n) lies in the stratum-p character set for m x n matrices.

    The conditions are w_{n-p} >= m - p and w_{n-p+1} <= n - p.
    """
    w, m, p = _instance("w", w, IntegerWeight), _size("m", m), _size("p", p)
    n = len(w)
    if not 0 <= p <= n <= m:
        raise ValueError(f"require 0 <= p <= n <= m, got p={p}, n={n}, m={m}")
    return _member_general(w.entries, m, p)


def _member_symmetric(w: tuple[int, ...], m: int | None, p: int) -> bool:
    """member_symmetric on a raw tuple, for 0 <= p <= len(w) (not checked); m is ignored.

    With k = n - p, the parities are one test per block: for k odd the whole
    of w is even; for k even the slice w[:k] is odd and w[k:] even.  Entry
    n - p is +inf when p = n; entries n - p + 1 and n - p + 2 are -inf past
    the end.
    """
    n = len(w)
    k = n - p
    if k % 2 == 1:
        return all(a % 2 == 0 for a in w) and w[k - 1] >= k + 1 and (k + 2 > n or w[k + 1] <= k + 1)
    return (all(a % 2 == 1 for a in w[:k]) and all(a % 2 == 0 for a in w[k:])
            and (k == 0 or w[k - 1] >= k + 1) and (p == 0 or w[k] <= k))


def member_symmetric(w: IntegerWeight, p: int) -> bool:
    """Whether w lies in the stratum-p character set for symmetric n x n matrices.

    For n - p odd: all entries even, w_{n-p} >= n - p + 1 >= w_{n-p+2}.
    For n - p even: entries up to index n - p odd, the rest even,
    w_{n-p} >= n - p + 1 and w_{n-p+1} <= n - p.
    """
    w, p = _instance("w", w, IntegerWeight), _size("p", p)
    n = len(w)
    if not 0 <= p <= n:
        raise ValueError(f"require 0 <= p <= n, got p={p}, n={n}")
    return _member_symmetric(w.entries, None, p)


def _member_skew(w: tuple[int, ...], m: int | None, p: int) -> bool:
    """member_skew on a raw tuple, for 0 <= p <= len(w) // 2 (not checked); m is ignored.

    With k = n - 2p, the pairings are slice equalities.  For n even they are
    w[0::2] == w[1::2]; entry n - 2p is +inf when 2p = n and entry
    n - 2p + 1 is -inf when p = 0.  For n odd the pivot w[k-1] == k - 1 is
    pinned, with w[:k-1:2] == w[1:k-1:2] above it and w[k::2] == w[k+1::2]
    below it; both pinned indices lie inside the weight.
    """
    n = len(w)
    k = n - 2 * p
    if n % 2 == 0:
        return w[0::2] == w[1::2] and (k == 0 or w[k - 1] >= k - 1) and (p == 0 or w[k] <= k)
    return w[k - 1] == k - 1 and w[:k - 1:2] == w[1:k - 1:2] and w[k::2] == w[k + 1::2]


def member_skew(w: IntegerWeight, p: int) -> bool:
    """Whether w lies in the stratum-p character set for skew-symmetric n x n matrices.

    Stratum p holds rank 2p.  For n even the entries pair up as
    w_1 = w_2, w_3 = w_4, ... with w_{n-2p} >= n - 2p - 1 and
    w_{n-2p+1} <= n - 2p.  For n odd the pivot entry is pinned,
    w_{n-2p} = n - 2p - 1, the pairing applies above it and shifts by one
    below it.
    """
    w, p = _instance("w", w, IntegerWeight), _size("p", p)
    n = len(w)
    if not 0 <= p <= n // 2:
        raise ValueError(f"require 0 <= p <= floor(n/2), got p={p}, n={n}")
    return _member_skew(w.entries, None, p)


def _durfee_candidates(n: int, rank: int, shift: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Candidate summands (r, alpha) for the stratum of rank ``rank`` of symmetric or skew matrices.

    The summands of wedge(Sym^2 F) (shift 1) and wedge(wedge^2 F) (shift 0)
    are the partitions (b_1 + 2 shift - 1, .., b_r + 2 shift - 1 | b_1, .., b_r)
    in Frobenius notation.  The summand (r, alpha), with alpha inside
    r x (n - r - 1 + shift), has rows r + shift + alpha_j for j <= r, then
    1 - shift rows r, then the columns alpha'_t <= r, so r is its Durfee size
    (``plethysm._frobenius_weight``).  The predicate pins r near
    r0 = n - rank - 1 + shift.  Soundness:

    * Symmetric, shift 1, rank p, r0 = n - p.  For r0 even the predicate
      asks w_{r0} >= r0 + 1 and w_{r0+1} <= r0, so r = r0.  For r0 odd it
      asks w_{r0} >= r0 + 1 and w_{r0+2} <= r0 + 1, so r is r0 or r0 + 1.
      - r = r0.  The first r rows must be odd when r0 is even and even when
        r0 is odd: either way r + 1 + alpha_j has the required parity exactly
        when alpha_j is even.  The rows below, the columns of alpha, must be
        even.  So alpha has even rows and even columns inside r0 x rank.
      - r = r0 + 1, r0 odd.  Every entry must be even, so alpha_j = w_j - r - 1
        is odd for each j <= r: alpha has r nonempty rows, i.e. a full first
        column, and its columns are even.  Without that column it has even
        rows and even columns inside r x (n - r - 1) = r x (rank - 2), which
        needs r < n.
    * Skew, shift 0, rank 2p, r0 = n - 2p - 1.
      - n odd, so r0 is even.  The predicate pins w_{r0+1} = r0.  If
        r >= r0 + 1 then w_{r0+1} >= r > r0, and if r <= r0 - 1 then
        w_{r0+1} <= w_{r+1} = r < r0, so r = r0 and w_{r0+1} is the row r.
        The pairs w_{2i-1} = w_{2i} above it pair the rows of alpha, so its
        columns are even; the pairs w_{2i} = w_{2i+1} below it pair its
        columns, so its rows are even.  So alpha has even rows and even
        columns inside r0 x rank.
      - n even, so r0 is odd.  The predicate asks w_{r0+1} >= r0,
        w_{r0+2} <= r0 + 1 and the pairs w_{2i-1} = w_{2i} throughout.  If
        r >= r0 + 2 then w_{r0+2} >= r > r0 + 1, and if r <= r0 - 1 then
        w_{r0+1} <= r < r0, so r is r0 or r0 + 1.  For r = r0 the pair
        (w_r, w_{r+1}) = (r + alpha_r, r) empties row r of alpha; the pairs
        above make its columns even, the pairs below, which start at
        w_{r+2} = alpha'_1, make its rows even.  So alpha has even rows and
        even columns inside r0 x rank.  For r = r0 + 1 the pair
        (w_{r+1}, w_{r+2}) = (r, alpha'_1) makes the first column of alpha
        full, of length r; the pairs above make its columns even, and the
        pairs below, alpha'_{2j} = alpha'_{2j+1}, make the rows even once that
        column is removed.  So alpha is a full first column plus even rows
        and even columns inside r x (n - r - 2) = r x (rank - 2), which needs
        r < n.

    In both families, then, every member is either (r0, alpha) with alpha
    of even rows and even columns inside r0 x rank (when r0 >= 0), or, when
    r0 is odd and r0 + 1 < n, (r0 + 1, alpha) with alpha a full first column
    plus even rows and even columns inside (r0 + 1) x (rank - 2).  Each case
    yields each such alpha once (_doubled_partitions), and the two cases
    differ in r, so no summand is produced twice.
    """
    r = n - rank - 1 + shift
    if r >= 0:
        for alpha in _doubled_partitions(r, rank):
            yield r, alpha
    if r % 2 == 1 and r + 1 < n:
        r += 1
        for alpha in _doubled_partitions(r, rank - 2):
            yield r, tuple(map((1).__add__, alpha)) + (1,) * (r - len(alpha))


def multiplicity(space: MatrixSpace, p: int, w: IntegerWeight) -> int:
    """Multiplicity (0 or 1) of the irreducible with highest weight w in the stratum-p module."""
    from .spaces import MatrixSpace  # spaces imports this module

    p = _instance("space", space, MatrixSpace).check_stratum(p)
    w = _instance("w", w, IntegerWeight)
    if len(w) != space.n:
        raise ValueError(f"weight length {len(w)} does not match n={space.n}")
    return 1 if space.record.member(w.entries, space.m, p) else 0
