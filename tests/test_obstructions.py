import pytest

from detstrata import (
    MatrixSpace,
    Mismatch,
    StrataMatrix,
    chi_closed,
    chi_from_enumeration,
    euler_closed,
    micro_indices,
    signed_micro,
    obstructions,
    solve_euler,
    verify,
    verify_index_identity,
)

RANGE_SPACES = (
    [MatrixSpace.general(m, n) for n in range(1, 6) for m in range(n, 6)]
    + [MatrixSpace.symmetric(n) for n in range(1, 8)]
    + [MatrixSpace.skew(n) for n in range(2, 9)]
)


class TestStrataMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            StrataMatrix(((1, 2),))

    def test_rejects_lower_triangular_entries(self):
        with pytest.raises(ValueError):
            StrataMatrix(((1, 0), (1, 1)))

    def test_product(self):
        a = StrataMatrix(((1, 2), (0, 1)))
        b = StrataMatrix(((1, -1), (0, 3)))
        assert a * b == StrataMatrix(((1, 5), (0, 3)))
        with pytest.raises(ValueError):
            a * StrataMatrix.identity(3)

    def test_identity(self):
        assert StrataMatrix.identity(3).to_json() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("rows", [((1.9,),), (("1",),), ((1, 2.0), (0, 1))])
    def test_rejects_non_integers(self, rows):
        with pytest.raises(TypeError):
            StrataMatrix(rows)


class TestStratumDimension:
    def test_examples(self):
        sym2 = MatrixSpace.symmetric(2)
        assert [sym2.stratum_dim(i) for i in range(3)] == [0, 2, 3]
        for n in range(1, 4):
            for m in range(n, 5):
                assert MatrixSpace.general(m, n).stratum_dim(0) == 0
        assert MatrixSpace.skew(5).stratum_dim(2) == 10

    def test_top_stratum_fills_the_space(self):
        for sp in RANGE_SPACES:
            assert sp.stratum_dim(sp.num_strata - 1) == sp.dim

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MatrixSpace.symmetric(2).stratum_dim(3)


class TestMicroIndices:
    def test_symmetric_two(self):
        assert micro_indices(MatrixSpace.symmetric(2)).to_json() == [
            [1, 1, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]

    def test_general_and_skew_are_identity(self):
        assert micro_indices(MatrixSpace.general(3, 2)) == StrataMatrix.identity(3)
        assert micro_indices(MatrixSpace.skew(4)) == StrataMatrix.identity(3)

    def test_symmetric_superdiagonal_rule(self):
        m = micro_indices(MatrixSpace.symmetric(5))
        for j in range(1, 6):
            assert m.entry(j - 1, j) == (1 if (5 - j) % 2 == 1 else 0)


class TestSignedMicro:
    def test_symmetric_two(self):
        assert signed_micro(MatrixSpace.symmetric(2)).to_json() == [
            [1, 1, 0],
            [0, 1, 0],
            [0, 0, -1],
        ]

    def test_general_two_two(self):
        assert signed_micro(MatrixSpace.general(2, 2)).to_json() == [
            [1, 0, 0],
            [0, -1, 0],
            [0, 0, 1],
        ]

    def test_skew_diagonal_signs(self):
        sp = MatrixSpace.skew(4)
        got = signed_micro(sp)
        for i in range(sp.num_strata):
            assert got.entry(i, i) == (-1) ** sp.stratum_dim(i)


class TestClosedForms:
    def test_symmetric_two_fixture(self):
        sp = MatrixSpace.symmetric(2)
        assert chi_closed(sp).to_json() == [[1, 1, -1], [0, 1, -1], [0, 0, -1]]
        assert euler_closed(sp).to_json() == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]

    def test_quadric_cone_obstruction_vanishes(self):
        assert euler_closed(MatrixSpace.symmetric(2)).entry(0, 1) == 0

    def test_general_entries(self):
        assert euler_closed(MatrixSpace.general(3, 2)).entry(0, 1) == 2

    def test_skew_entry(self):
        assert chi_closed(MatrixSpace.skew(5)).entry(0, 1) == -2

    def test_diagonals_and_triangularity(self):
        for sp in RANGE_SPACES:
            chi = chi_closed(sp)
            euler = euler_closed(sp)
            for i in range(chi.order):
                assert euler.entry(i, i) == 1
                assert chi.entry(i, i) == (-1) ** sp.stratum_dim(i)
                for j in range(i):
                    assert chi.entry(i, j) == 0
                    assert euler.entry(i, j) == 0

    def test_euler_nonnegative(self):
        for sp in RANGE_SPACES:
            euler = euler_closed(sp)
            assert all(x >= 0 for row in euler.rows for x in row)


class TestIndexIdentity:
    @pytest.mark.parametrize(
        "space",
        [MatrixSpace.symmetric(2), MatrixSpace.general(5, 4), MatrixSpace.skew(7)],
        ids=str,
    )
    def test_examples(self, space):
        assert verify_index_identity(space)

    def test_across_ranges(self):
        for sp in RANGE_SPACES:
            assert verify_index_identity(sp), str(sp)


class TestChiFromEnumeration:
    @pytest.mark.parametrize(
        "space",
        [MatrixSpace.symmetric(2), MatrixSpace.general(2, 2), MatrixSpace.skew(4)],
        ids=str,
    )
    def test_matches_closed_form(self, space):
        assert chi_from_enumeration(space) == chi_closed(space)

    def test_reduction_sign(self):
        # chi_{i,j} of the big space is (-1)**d_i times chi_{0,j-i} of the
        # space transverse to stratum i, for every family
        for sp in RANGE_SPACES:
            chi = chi_closed(sp)
            for i in range(1, sp.num_strata - 1):
                if sp.family == "general":
                    smaller = MatrixSpace.general(sp.m - i, sp.n - i)
                elif sp.family == "symmetric":
                    smaller = MatrixSpace.symmetric(sp.n - i)
                else:
                    smaller = MatrixSpace.skew(sp.n - 2 * i)
                small_chi = chi_closed(smaller)
                sign = (-1) ** sp.stratum_dim(i)
                for j in range(i, sp.num_strata):
                    assert chi.entry(i, j) == sign * small_chi.entry(0, j - i), (str(sp), i, j)


class TestSolveEuler:
    def test_identity(self):
        one = StrataMatrix.identity(4)
        assert solve_euler(one, one) == one

    def test_symmetric_two_fixture(self):
        sp = MatrixSpace.symmetric(2)
        assert solve_euler(chi_closed(sp), signed_micro(sp)) == euler_closed(sp)

    def test_general_three_three(self):
        sp = MatrixSpace.general(3, 3)
        assert solve_euler(chi_closed(sp), signed_micro(sp)) == euler_closed(sp)

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError):
            solve_euler(StrataMatrix.identity(2), StrataMatrix(((2, 0), (0, 1))))

    def test_rejects_order_mismatch(self):
        with pytest.raises(ValueError):
            solve_euler(StrataMatrix.identity(2), StrataMatrix.identity(3))

    def test_round_trip_with_product(self):
        for sp in [MatrixSpace.symmetric(4), MatrixSpace.general(4, 2), MatrixSpace.skew(6)]:
            signed = signed_micro(sp)
            euler = euler_closed(sp)
            assert solve_euler(euler * signed, signed) == euler


class TestVerify:
    def test_every_check_agrees_across_ranges(self):
        for space in RANGE_SPACES:
            assert verify(space) is None, str(space)

    def test_mismatch_names_the_check_the_cell_and_both_values(self, monkeypatch):
        def perturbed(space, real=obstructions.euler_closed):
            rows = [list(row) for row in real(space).rows]
            rows[0][-1] += 1
            return StrataMatrix(rows)

        monkeypatch.setattr(obstructions, "euler_closed", perturbed)
        space = MatrixSpace.symmetric(1)
        found = verify(space)
        assert found == Mismatch(space, "index identity", (0, 1), -1, -2)
        assert str(found) == "symmetric(1) index identity cell (0,1): chi=-1, euler*signed=-2"
