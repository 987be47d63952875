import re
from math import comb

import pytest

from detstrata import (
    Partition,
    cauchy_exterior,
    enumerate_in_rectangle,
    schur_dimension,
    skew_exterior_partitions,
    symmetric_exterior_partitions,
)
from detstrata.plethysm import _frobenius_weight

from helpers import weyl_dimension


def parts(seqs):
    return [Partition(s) for s in seqs]


class TestCauchyExterior:
    def test_examples(self):
        assert cauchy_exterior(2, 2, 1) == parts([(1,)])
        assert cauchy_exterior(2, 2, 4) == parts([(2, 2)])
        assert cauchy_exterior(3, 2, 2) == parts([(2,), (1, 1)])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cauchy_exterior(2, 3, 1)  # m < n
        with pytest.raises(ValueError):
            cauchy_exterior(2, 2, 5)  # i > m*n
        with pytest.raises(ValueError):
            cauchy_exterior(2, 2, -1)

    def test_dimension_sums(self):
        for n in range(1, 6):
            for m in range(n, 6):
                for i in range(m * n + 1):
                    total = sum(
                        schur_dimension(mu.conjugate(), m) * schur_dimension(mu, n)
                        for mu in cauchy_exterior(m, n, i)
                    )
                    assert total == comb(m * n, i), (m, n, i)


class TestSymmetricExterior:
    def test_examples(self):
        for n in range(2, 6):
            assert symmetric_exterior_partitions(n, 1) == parts([(2,)])
            assert symmetric_exterior_partitions(n, 2) == parts([(3, 1)])
        assert symmetric_exterior_partitions(2, 3) == parts([(3, 3)])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            symmetric_exterior_partitions(0, 0)
        with pytest.raises(ValueError):
            symmetric_exterior_partitions(2, 4)  # i > n(n+1)/2

    def test_dimension_sums(self):
        for n in range(1, 6):
            for i in range(n * (n + 1) // 2 + 1):
                total = sum(schur_dimension(p, n) for p in symmetric_exterior_partitions(n, i))
                assert total == comb(n * (n + 1) // 2, i), (n, i)

    def test_structure(self):
        # every output has size 2i, decomposes around its Durfee square, no repeats
        for n in range(1, 6):
            for i in range(n * (n + 1) // 2 + 1):
                got = symmetric_exterior_partitions(n, i)
                assert len(got) == len(set(got))
                for lam in got:
                    assert lam.size == 2 * i
                    r = lam.durfee
                    alpha = Partition(tuple(lam.parts[j] - r - 1 for j in range(r)))
                    assert alpha.fits_in(r, n - r)
                    assert lam.parts[r:] == alpha.conjugate().parts
                    assert r * r + r + 2 * alpha.size == 2 * i


class TestSkewExterior:
    def test_examples(self):
        for n in range(2, 6):
            assert skew_exterior_partitions(n, 1) == parts([(1, 1)])
        for n in range(4, 7):
            assert skew_exterior_partitions(n, 2) == parts([(2, 1, 1)])
        assert skew_exterior_partitions(4, 6) == parts([(3, 3, 3, 3)])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            skew_exterior_partitions(1, 0)
        with pytest.raises(ValueError):
            skew_exterior_partitions(3, 4)  # i > n(n-1)/2

    def test_dimension_sums(self):
        for n in range(2, 6):
            for i in range(n * (n - 1) // 2 + 1):
                total = sum(schur_dimension(p, n) for p in skew_exterior_partitions(n, i))
                assert total == comb(n * (n - 1) // 2, i), (n, i)

    def test_structure(self):
        for n in range(2, 6):
            for i in range(n * (n - 1) // 2 + 1):
                got = skew_exterior_partitions(n, i)
                assert len(got) == len(set(got))
                for lam in got:
                    assert lam.size == 2 * i
                    r = lam.durfee
                    padded = lam.pad(max(len(lam), r + 1))
                    assert padded[r] == r or r == 0
                    alpha = Partition(tuple(padded[j] - r for j in range(r)))
                    assert alpha.fits_in(r, n - r - 1)
                    assert padded[r + 1 :] == alpha.conjugate().pad(len(padded) - r - 1)


# the three lists for spaces of dimension 6: general(3,2), symmetric(3), skew(4)
LISTS = {
    "cauchy": lambda i: cauchy_exterior(3, 2, i),
    "symmetric": lambda i: symmetric_exterior_partitions(3, i),
    "skew": lambda i: skew_exterior_partitions(4, i),
}


@pytest.mark.parametrize("listing", LISTS.values(), ids=LISTS.keys())
class TestDegreeArgument:
    @pytest.mark.parametrize("degree", [1.0, 1.5, "1", None], ids=repr)
    def test_non_integer_degree_raises_type_error_naming_it(self, listing, degree):
        with pytest.raises(TypeError, match=f"^{re.escape(f'i must be an integer, got {degree!r}')}$"):
            listing(degree)

    def test_bool_degree_reads_as_an_int(self, listing):
        assert listing(True) == listing(1)
        assert listing(False) == listing(0) == [Partition(())]

    def test_degree_range_is_zero_to_the_dimension(self, listing):
        assert listing(6)
        for degree in (-1, 7):
            with pytest.raises(ValueError, match=f"got i={degree}$"):
                listing(degree)


class TestFrobeniusWeight:
    """The shared summand weight has Frobenius form (b_1 + 2 shift - 1, .. | b_1, ..)."""

    def test_frobenius_rows_differ_by_the_shift(self):
        for shift in (0, 1):
            for n in range(1, 12):
                for r in range(n + shift):
                    cols = n - r - 1 + shift
                    for k in range(r * cols + 1):
                        for alpha in enumerate_in_rectangle(r, cols, k):
                            w = _frobenius_weight(shift, n, r, alpha.parts)
                            assert len(w) == n and w == tuple(sorted(w, reverse=True))
                            assert w[-1] >= 0
                            conj = [sum(1 for a in w if a >= j) for j in range(1, n + 1)]
                            rows = [j for j in range(1, n + 1) if w[j - 1] >= j]
                            assert rows == list(range(1, r + 1)), (shift, n, r, alpha)
                            for j in rows:
                                a, b = w[j - 1] - j, conj[j - 1] - j
                                assert a - b == 2 * shift - 1, (shift, n, r, alpha)

    def test_none_outside_the_box(self):
        for shift in (0, 1):
            for n in range(1, 8):
                for r in range(n + shift):
                    cols = n - r - 1 + shift
                    for k in range((r + 1) * (cols + 1) + 1):
                        for alpha in enumerate_in_rectangle(r + 1, cols + 1, k):
                            inside = alpha.fits_in(r, cols)
                            assert (_frobenius_weight(shift, n, r, alpha.parts) is None) != inside


class TestSchurDimension:
    def test_examples(self):
        assert schur_dimension(Partition((1, 1)), 2) == 1
        for k in range(6):
            assert schur_dimension(Partition((k,)), 1) == 1
        assert schur_dimension(Partition((2, 1)), 3) == 8

    def test_vanishes_with_too_many_parts(self):
        assert schur_dimension(Partition((1, 1, 1)), 2) == 0
        assert schur_dimension(Partition((2,)), 0) == 0
        assert schur_dimension(Partition(()), 0) == 1

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            schur_dimension(Partition((1,)), -1)

    def test_matches_weyl_product(self):
        for k in range(17):
            for p in enumerate_in_rectangle(4, 4, k):
                for N in range(6):
                    assert schur_dimension(p, N) == weyl_dimension(p.parts, N), (p, N)
