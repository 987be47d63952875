import re
from math import comb

import pytest
from helpers import q_power, reference_closed_gf

from detstrata import (
    LaurentPoly,
    MatrixSpace,
    epsilon_symmetric,
    euler_char_at_origin,
    ic_poincare,
    inv_derham_gf_closed,
    inv_derham_gf_enum,
    qpoly,
)

SAMPLE_SPACES = [
    MatrixSpace.general(2, 2),
    MatrixSpace.general(4, 3),
    MatrixSpace.symmetric(4),
    MatrixSpace.symmetric(5),
    MatrixSpace.skew(5),
    MatrixSpace.skew(6),
]


def poly(terms):
    return LaurentPoly.from_terms(terms)


class TestEpsilon:
    @pytest.mark.parametrize(
        "n, p, expected",
        [(3, 2, 1), (2, 2, 0), (3, 1, 0), (5, 0, 1), (4, 4, 0)],
    )
    def test_examples(self, n, p, expected):
        assert epsilon_symmetric(n, p) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            epsilon_symmetric(2, 3)


class TestClosedForm:
    def test_general_examples(self):
        for n in range(1, 4):
            for m in range(n, 5):
                sp = MatrixSpace.general(m, n)
                assert inv_derham_gf_closed(sp, n) == q_power(0)
                assert inv_derham_gf_closed(sp, 0) == q_power(m * n)
        assert inv_derham_gf_closed(MatrixSpace.general(3, 2), 1) == poly({2: 1, 4: 1})

    def test_symmetric_examples(self):
        assert inv_derham_gf_closed(MatrixSpace.symmetric(2), 1) == poly({1: 1})
        assert inv_derham_gf_closed(MatrixSpace.symmetric(3), 2) == poly({1: 1, 5: 1})

    def test_skew_examples(self):
        assert inv_derham_gf_closed(MatrixSpace.skew(4), 2) == q_power(0)
        assert inv_derham_gf_closed(MatrixSpace.skew(4), 1) == poly({1: 1, 5: 1})

    def test_rejects_bad_stratum(self):
        with pytest.raises(ValueError):
            inv_derham_gf_closed(MatrixSpace.symmetric(3), 4)

    def test_value_at_one_is_binomial(self):
        for sp in SAMPLE_SPACES:
            for p in sp.strata:
                expected = {
                    "general": comb(sp.n, p),
                    "symmetric": comb(sp.n // 2 + epsilon_symmetric(sp.n, p), p // 2),
                    "skew": comb(sp.n // 2, p),
                }[sp.family]
                assert inv_derham_gf_closed(sp, p).evaluate(1) == expected


class TestEnumeration:
    def test_symmetric_two_stratum_one(self):
        assert inv_derham_gf_enum(MatrixSpace.symmetric(2), 1) == poly({1: 1})

    def test_rejects_bad_stratum(self):
        with pytest.raises(ValueError):
            inv_derham_gf_enum(MatrixSpace.skew(4), -1)

    def test_agrees_with_closed_form(self):
        for sp in SAMPLE_SPACES:
            for p in sp.strata:
                assert inv_derham_gf_enum(sp, p) == inv_derham_gf_closed(sp, p), (str(sp), p)

    def test_parity_gaps(self):
        # supports never contain adjacent exponents, and sit in a fixed
        # congruence class: mod 2 (general), mod 4 (symmetric and skew)
        for sp in SAMPLE_SPACES:
            for p in sp.strata:
                support = inv_derham_gf_enum(sp, p).support()
                assert all(b - a >= 2 for a, b in zip(support, support[1:]))
                if sp.family == "general":
                    assert all(e % 2 == (sp.m - p) * (sp.n - p) % 2 for e in support)
                else:
                    assert all((e - support[0]) % 4 == 0 for e in support)

    def test_lowest_term(self):
        for sp in SAMPLE_SPACES:
            for p in sp.strata:
                gf = inv_derham_gf_enum(sp, p)
                assert gf.min_exp == sp.dim - sp.stratum_dim(p)
                assert gf.coefficient(gf.min_exp) == 1


class TestIcPoincare:
    def test_examples(self):
        assert ic_poincare(MatrixSpace.general(2, 2), 2) == poly({-4: 1})
        assert ic_poincare(MatrixSpace.symmetric(2), 1) == poly({-2: 1})
        assert ic_poincare(MatrixSpace.skew(4), 0) == q_power(0)

    def test_shape(self):
        # top coefficient 1 in degree -d_p, nonnegative palindromic coefficients
        for sp in SAMPLE_SPACES:
            for p in sp.strata:
                ic = ic_poincare(sp, p)
                assert ic.min_exp == -sp.stratum_dim(p)
                assert ic.coefficient(ic.min_exp) == 1
                assert ic.max_exp <= 0
                assert all(c >= 0 for c in ic.coeffs)
                assert ic.coeffs == ic.coeffs[::-1]


class TestEulerCharAtOrigin:
    def test_symmetric_two(self):
        sp = MatrixSpace.symmetric(2)
        for gf in (inv_derham_gf_enum, inv_derham_gf_closed):
            assert euler_char_at_origin(gf(sp, 0), sp.dim) == 1
            assert euler_char_at_origin(gf(sp, 1), sp.dim) == 1
            assert euler_char_at_origin(gf(sp, 2), sp.dim) == -1

    def test_full_space_stratum(self):
        sp = MatrixSpace.general(2, 2)
        assert euler_char_at_origin(inv_derham_gf_closed(sp, 2), sp.dim) == 1

    def test_methods_agree(self):
        for sp in SAMPLE_SPACES:
            for p in sp.strata:
                enum, closed = inv_derham_gf_enum(sp, p), inv_derham_gf_closed(sp, p)
                assert euler_char_at_origin(enum, sp.dim) == euler_char_at_origin(closed, sp.dim)

    @pytest.mark.parametrize("dim", [1.5, 2.0, "2", None], ids=repr)
    def test_non_integer_dim_raises_type_error_naming_it(self, dim):
        with pytest.raises(TypeError, match=f"^{re.escape(f'dim must be an integer, got {dim!r}')}$"):
            euler_char_at_origin(q_power(0), dim)

    def test_negative_dim_is_refused_not_read_as_a_float(self):
        with pytest.raises(ValueError, match=r"^require dim >= 0, got dim=-1$"):
            euler_char_at_origin(LaurentPoly(0, (1, 1, 1)), -1)

    def test_bool_dim_reads_as_an_int(self):
        gf = LaurentPoly(0, (1, 1, 1))
        assert euler_char_at_origin(gf, True) == euler_char_at_origin(gf, 1) == -1
        assert euler_char_at_origin(gf, False) == euler_char_at_origin(gf, 0) == 1


CLOSED_SPACES = [MatrixSpace.general(30, 30), MatrixSpace.symmetric(41), MatrixSpace.skew(41)]


class TestClosedExpanders:
    """inv_derham_gf_closed and ic_poincare build one run from the cached half row."""

    @pytest.mark.parametrize("space", CLOSED_SPACES, ids=str)
    def test_equal_the_reference_chain_on_every_stratum(self, space):
        for p in space.strata:
            assert inv_derham_gf_closed(space, p) == reference_closed_gf(space, p, space.dim), p
            assert ic_poincare(space, p) == reference_closed_gf(space, p, 0), p

    def test_neither_substitutes_nor_builds_a_q_binomial(self, monkeypatch):
        cases = [(space, p) for space in CLOSED_SPACES for p in space.strata]
        expected = [(reference_closed_gf(s, p, s.dim), reference_closed_gf(s, p, 0)) for s, p in cases]
        calls = []

        def spy(name, real):
            def record(*args):
                calls.append(name)
                return real(*args)
            return record

        substitute = spy("substitute_power", LaurentPoly.substitute_power)
        monkeypatch.setattr(LaurentPoly, "substitute_power", substitute)
        monkeypatch.setattr(qpoly, "gauss_binomial", spy("gauss_binomial", qpoly.gauss_binomial))
        got = [(inv_derham_gf_closed(s, p), ic_poincare(s, p)) for s, p in cases]
        monkeypatch.undo()
        assert calls == []
        assert got == expected
