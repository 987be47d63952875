import random

import pytest
from helpers import identity, q_power, reference_product

from detstrata import (
    LaurentPoly,
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
            a * identity(3)

    @pytest.mark.parametrize("order", range(9))
    def test_product_matches_the_triple_loop(self, order):
        rng = random.Random(order)
        values = [0, 0, 1, -1, 7, -12, 2**64 + 3, -(2**70) + 1, 3**50]
        for _ in range(5):
            a, b = (
                [[rng.choice(values) if j >= i else 0 for j in range(order)] for i in range(order)]
                for _ in range(2)
            )
            assert (StrataMatrix(a) * StrataMatrix(b)).to_json() == reference_product(a, b)

    @pytest.mark.parametrize("order", range(2, 7))
    def test_lower_entry_error_names_the_first_cell_in_row_order(self, order):
        lower = [(i, j) for i in range(order) for j in range(i)]
        for k, (i, j) in enumerate(lower):
            rows = [[1] * order for _ in range(order)]
            for r, c in lower[:k]:
                rows[r][c] = 0
            with pytest.raises(ValueError, match=rf"^entry \({i},{j}\) below the diagonal must be zero$"):
                StrataMatrix(rows)

    @pytest.mark.parametrize("rows", [((1, 0, 0), (1, 1), (0, 0, 1)), ((1, 0, 0), (1, 1, 0), (0, 1))])
    def test_non_square_wins_over_a_lower_entry(self, rows):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            StrataMatrix(rows)

    def test_identity(self):
        assert identity(3).to_json() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("rows", [((1.9,),), (("1",),), ((1, 2.0), (0, 1))])
    def test_rejects_non_integers(self, rows):
        with pytest.raises(TypeError):
            StrataMatrix(rows)


WRAP_SPACES = (
    [MatrixSpace.general(m, n) for n in range(1, 9) for m in range(n, 9)]
    + [MatrixSpace.symmetric(n) for n in range(1, 15)]
    + [MatrixSpace.skew(n) for n in range(2, 17)]
)


@pytest.mark.parametrize("space", WRAP_SPACES, ids=str)
def test_every_built_matrix_passes_the_validating_constructor(space):
    """The package wraps the rows it builds without checks; each matrix must be one the constructor accepts."""
    euler, signed = euler_closed(space), signed_micro(space)
    chi = chi_from_enumeration(space)
    built = [euler, chi_closed(space), micro_indices(space), signed, chi, euler * signed, solve_euler(chi, signed)]
    for matrix in built:
        assert type(matrix.rows) is tuple
        assert all(type(row) is tuple and all(type(cell) is int for cell in row) for row in matrix.rows)
        assert matrix == StrataMatrix(matrix.rows)


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
        assert micro_indices(MatrixSpace.general(3, 2)) == identity(3)
        assert micro_indices(MatrixSpace.skew(4)) == identity(3)

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
        one = identity(4)
        assert solve_euler(one, one) == one

    def test_symmetric_two_fixture(self):
        sp = MatrixSpace.symmetric(2)
        assert solve_euler(chi_closed(sp), signed_micro(sp)) == euler_closed(sp)

    def test_general_three_three(self):
        sp = MatrixSpace.general(3, 3)
        assert solve_euler(chi_closed(sp), signed_micro(sp)) == euler_closed(sp)

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError):
            solve_euler(identity(2), StrataMatrix(((2, 0), (0, 1))))

    def test_rejects_order_mismatch(self):
        with pytest.raises(ValueError):
            solve_euler(identity(2), identity(3))

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


def bumped(real, cells):
    """The matrix route ``real`` with each of ``cells`` raised by one."""
    def perturbed(space):
        rows = [list(row) for row in real(space).rows]
        for i, j in cells:
            rows[i][j] += 1
        return StrataMatrix(rows)
    return perturbed


class TestChecks:
    """``verify`` runs ``CHECKS`` in order, and each check fires on a perturbation of its own route.

    symmetric(3) has chi rows (1,-1,-2,1), (0,-1,-1,1), (0,0,-1,1), (0,0,0,1);
    E rows (1,1,1,1), (0,1,0,1), (0,0,1,1), (0,0,0,1); and M rows
    (1,0,0,0), (0,-1,-1,0), (0,0,-1,0), (0,0,0,1).
    """

    SPACE = MatrixSpace.symmetric(3)

    def fired(self):
        value = obstructions._route_values(self.SPACE)
        return [check(value) is not None for _, _, check in obstructions.CHECKS]

    def test_names_in_order(self):
        assert [name for name, _, _ in obstructions.CHECKS] == ["derham", "index identity", "euler"]

    def test_no_check_fires_on_the_real_routes(self):
        assert self.fired() == [False, False, False]
        assert verify(self.SPACE) is None

    def test_derham_fires_on_an_enumerated_count(self, monkeypatch):
        real = obstructions.inv_derham_gf_enum

        def perturbed(space, p):
            gf = real(space, p)
            return gf + q_power(3) if p == 2 else gf

        monkeypatch.setattr(obstructions, "inv_derham_gf_enum", perturbed)
        found = verify(self.SPACE)
        enum, closed = LaurentPoly(1, (1, 0, 1, 0, 1)), LaurentPoly(1, (1, 0, 0, 0, 1))
        assert found == Mismatch(self.SPACE, "derham", (2,), enum, closed)
        assert str(found) == "symmetric(3) derham p=2: enum=q + q^3 + q^5, closed=q + q^5"
        assert self.fired() == [True, False, False]

    def test_derham_reports_the_first_perturbed_stratum(self, monkeypatch):
        real = obstructions.inv_derham_gf_enum

        def perturbed(space, p):
            gf = real(space, p)
            return gf + q_power(3) if p in (1, 2) else gf

        monkeypatch.setattr(obstructions, "inv_derham_gf_enum", perturbed)
        found = verify(self.SPACE)
        assert found == Mismatch(self.SPACE, "derham", (1,), LaurentPoly(3, (2,)), LaurentPoly(3, (1,)))
        assert str(found) == "symmetric(3) derham p=1: enum=2*q^3, closed=q^3"
        assert self.fired() == [True, False, False]

    def test_verify_builds_each_matrix_route_once(self, monkeypatch):
        routes = ("chi_closed", "euler_closed", "signed_micro", "chi_from_enumeration")
        calls = dict.fromkeys(routes, 0)

        def counted(name, real):
            def route(space):
                calls[name] += 1
                return real(space)
            return route

        for name in routes:
            monkeypatch.setattr(obstructions, name, counted(name, getattr(obstructions, name)))
        assert verify(self.SPACE) is None
        assert calls == dict.fromkeys(routes, 1)

    @pytest.mark.parametrize("route, cells, check, at, first, second, text, fired", [
        # e_{1,3} = 2 makes (E M)_{1,3} = 2 against chi_{1,3} = 1; the euler check sees it too
        ("euler_closed", [(1, 3)], "index identity", (1, 3), 1, 2,
         "symmetric(3) index identity cell (1,3): chi=1, euler*signed=2", [False, True, True]),
        # chi_{2,3} = 2 solves to e_{2,3} = 2 against the closed 1
        ("chi_from_enumeration", [(2, 3)], "euler", (2, 3), 2, 1,
         "symmetric(3) euler cell (2,3): enumerated=2, closed=1", [False, False, True]),
        # two bad cells: (0,3) comes first in row order, (1,1) in column order
        ("euler_closed", [(1, 1), (0, 3)], "index identity", (0, 3), 1, 2,
         "symmetric(3) index identity cell (0,3): chi=1, euler*signed=2", [False, True, True]),
        ("chi_from_enumeration", [(1, 1), (0, 3)], "euler", (0, 3), 2, 1,
         "symmetric(3) euler cell (0,3): enumerated=2, closed=1", [False, False, True]),
    ], ids=["euler_closed", "chi_from_enumeration", "euler_closed-row-order", "chi_from_enumeration-row-order"])
    def test_matrix_checks_fire_on_a_perturbed_cell(
        self, monkeypatch, route, cells, check, at, first, second, text, fired
    ):
        monkeypatch.setattr(obstructions, route, bumped(getattr(obstructions, route), cells))
        found = verify(self.SPACE)
        assert found == Mismatch(self.SPACE, check, at, first, second)
        assert str(found) == text
        assert self.fired() == fired
