import tracemalloc
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detstrata import IntegerWeight, Partition, enumerate_in_rectangle, gauss_binomial
from detstrata.partitions import _box_partitions, _doubled_partitions, _in_box

from helpers import dual, durfee, fits_in, partition_from_json, to_weight


def all_in_box(rows, cols):
    for k in range(rows * cols + 1):
        yield from enumerate_in_rectangle(rows, cols, k)


class TestPartition:
    def test_trailing_zeros_trimmed(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition((0, 0)) == Partition(())
        assert Partition((3, 1, 0)).parts == (3, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    @pytest.mark.parametrize("parts", [(2.7, 1), ("3", 1), (2, 1.0)])
    def test_rejects_non_integers(self, parts):
        with pytest.raises(TypeError):
            Partition(parts)

    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((5, 3, 3, 2), (4, 4, 3, 1, 1)),
            ((), ()),
            ((1, 1, 1), (3,)),
        ],
    )
    def test_conjugate_examples(self, parts, expected):
        assert Partition(parts).conjugate() == Partition(expected)

    def test_conjugate_involution_in_box(self):
        for p in all_in_box(6, 6):
            assert p.conjugate().conjugate() == p

    def test_conjugate_preserves_size_and_durfee(self):
        for p in all_in_box(6, 6):
            q = p.conjugate()
            assert q.size == p.size
            assert durfee(q) == durfee(p)

    @pytest.mark.parametrize(
        "parts, expected",
        [((5, 3, 3, 2), 3), ((), 0), ((2, 2), 2)],
    )
    def test_durfee_examples(self, parts, expected):
        assert durfee(Partition(parts)) == expected

    @pytest.mark.parametrize(
        "parts, expected",
        [((5, 3, 3, 2), 13), ((), 0), ((3, 1), 4)],
    )
    def test_size_examples(self, parts, expected):
        assert Partition(parts).size == expected

    @pytest.mark.parametrize(
        "parts, rows, cols, expected",
        [
            ((2, 1), 2, 2, True),
            ((3, 1), 2, 2, False),
            ((), 0, 0, True),
            ((1, 1, 1), 2, 5, False),
        ],
    )
    def test_fits_in(self, parts, rows, cols, expected):
        assert fits_in(Partition(parts), rows, cols) is expected

    def test_fits_in_rejects_negative_rectangle(self):
        with pytest.raises(ValueError):
            fits_in(Partition((1,)), -1, 2)

    def test_pad(self):
        assert Partition((3, 1)).pad(4) == (3, 1, 0, 0)
        with pytest.raises(ValueError):
            Partition((3, 1)).pad(1)

    def test_to_weight(self):
        assert to_weight(Partition((3, 1)), 3) == IntegerWeight((3, 1, 0))

    def test_json_round_trip(self):
        p = Partition((5, 3, 3, 2))
        assert partition_from_json(p.to_json()) == p


class TestEnumerateInRectangle:
    @pytest.mark.parametrize(
        "rows, cols, k, expected",
        [
            (1, 1, 1, [(1,)]),
            (2, 2, 2, [(2,), (1, 1)]),
            (2, 2, 5, []),
            (0, 4, 0, [()]),
            (0, 4, 1, []),
        ],
    )
    def test_examples(self, rows, cols, k, expected):
        assert enumerate_in_rectangle(rows, cols, k) == [Partition(e) for e in expected]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            enumerate_in_rectangle(2, 2, -1)

    def test_order_uniqueness_and_containment(self):
        for rows in range(5):
            for cols in range(5):
                for k in range(rows * cols + 1):
                    got = enumerate_in_rectangle(rows, cols, k)
                    assert got == sorted(set(got), reverse=True)
                    for p in got:
                        assert p.size == k
                        assert fits_in(p, rows, cols)

    def test_long_partitions_need_no_recursion_depth(self):
        """A partition with more parts than the interpreter's recursion limit is listed too."""
        assert enumerate_in_rectangle(1200, 1, 1200) == [Partition((1,) * 1200)]
        # j twos and 1201 - 2j ones in at most 1200 rows: 1 <= j <= 600, the most twos first
        got = enumerate_in_rectangle(1200, 2, 1201)
        assert got == [Partition((2,) * j + (1,) * (1201 - 2 * j)) for j in range(600, 0, -1)]

    def test_counts_match_gauss_binomial_coefficients(self):
        for a in range(9):
            for b in range(a + 1):
                poly = gauss_binomial(a, b)
                for k in range(b * (a - b) + 1):
                    assert poly.coefficient(k) == len(enumerate_in_rectangle(a - b, b, k))


class TestRawBoxHelpers:
    def test_in_box_matches_fits_in_on_partitions(self):
        for rows in range(5):
            for cols in range(5):
                for p in all_in_box(4, 4):
                    assert _in_box(p.parts, rows, cols) == fits_in(p, rows, cols)

    def test_in_box_rejects_non_partitions_and_negative_sides(self):
        assert not _in_box((1, 2), 3, 3)
        assert not _in_box((2, 0), 3, 3)
        assert not _in_box((2, 0, 1), 3, 3)
        assert not _in_box((-1,), 3, 3)
        assert not _in_box((4, 1), 3, 3)
        assert not _in_box((), 2, -1)
        assert not _in_box((), -1, 2)
        assert _in_box((), 0, 0)

    def test_box_walk_matches_a_brute_force_listing_in_every_window(self):
        """Each partition once, decreasing within one size, and every prefix before its extensions."""
        for rows in range(7):
            for cols in range(7):
                # a partition is a multiset of at most rows parts from 1..cols, written decreasing
                box = [tuple(reversed(parts)) for length in range(rows + 1)
                       for parts in combinations_with_replacement(range(1, cols + 1), length)]
                top = rows * cols + 1
                for lo in range(top + 1):
                    for hi in range(lo, top + 1):
                        got = list(_box_partitions(rows, cols, lo, hi))
                        assert sorted(got) == sorted(p for p in box if lo <= sum(p) <= hi), (rows, cols, lo, hi)
                        if lo == hi:
                            assert got == sorted(got, reverse=True)
                order = {parts: i for i, parts in enumerate(_box_partitions(rows, cols, 0, rows * cols))}
                assert all(order[parts[:-1]] < order[parts] for parts in box if parts)

    @pytest.mark.parametrize("lo, hi, count", [(40, 40, 1667), (0, 81, 48620)])
    def test_box_walk_holds_one_partition_at_a_time(self, lo, hi, count):
        """The walk over the 9 x 9 box lists no size class: its peak is far below one class's 184 KB."""
        walk = _box_partitions(9, 9, lo, hi)
        tracemalloc.start()
        try:
            assert sum(1 for _ in walk) == count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024

    def test_doubled_partitions_are_those_with_even_rows_and_columns(self):
        for rows in range(7):
            for cols in range(7):
                expected = {
                    p.parts
                    for p in all_in_box(rows, cols)
                    if all(a % 2 == 0 for a in p.parts)
                    and all(a % 2 == 0 for a in p.conjugate().parts)
                }
                got = list(_doubled_partitions(rows, cols))
                assert len(got) == len(set(got))
                assert set(got) == expected, (rows, cols)


class TestIntegerWeight:
    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            IntegerWeight((0, 1))

    @pytest.mark.parametrize("entries", [("3", 1.9), (3, 1.9), (2.0, -1)])
    def test_rejects_non_integers(self, entries):
        with pytest.raises(TypeError):
            IntegerWeight(entries)

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ((2, 0, -1), (1, 0, -2)),
            ((0, 0), (0, 0)),
            ((3, 3), (-3, -3)),
        ],
    )
    def test_dual_examples(self, entries, expected):
        assert dual(IntegerWeight(entries)) == IntegerWeight(expected)

    @given(st.lists(st.integers(-20, 20), max_size=6))
    def test_dual_is_dominance_preserving_involution(self, xs):
        w = IntegerWeight(tuple(sorted(xs, reverse=True)))
        d = dual(w)  # construction re-checks dominance
        assert dual(d) == w
