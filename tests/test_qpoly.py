import json
import math
import os
import random
import subprocess
import sys
import threading

import pytest
from helpers import difference, fresh_cache, pascal_gauss_binomial, pascal_rows, poly_from_json, q_power
from hypothesis import example, given
from hypothesis import strategies as st

from detstrata import LaurentPoly, enumerate_in_rectangle, gauss_binomial, qpoly

ONE = q_power(0)
Q = q_power(1)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qpoly.__file__)))

polys = st.builds(
    lambda e, cs: LaurentPoly(e, tuple(cs)),
    st.integers(-4, 4),
    st.lists(st.integers(-9, 9), max_size=6),
)
wide_polys = st.builds(
    lambda e, cs: LaurentPoly(e, tuple(cs)),
    st.integers(-12, 12),
    st.lists(st.integers(-3, 3), max_size=12),
)


def terms(poly):
    """The polynomial as a dict from exponent to nonzero coefficient."""
    return {poly.min_exp + i: c for i, c in enumerate(poly.coeffs) if c}


def canonical(term_dict):
    """(min_exp, coeffs) of the trimmed dense run holding ``term_dict``, (0, ()) for zero."""
    nonzero = {e: c for e, c in term_dict.items() if c}
    if not nonzero:
        return 0, ()
    lo, hi = min(nonzero), max(nonzero)
    return lo, tuple(nonzero.get(e, 0) for e in range(lo, hi + 1))


def as_pair(poly):
    return poly.min_exp, poly.coeffs


@st.composite
def cancelling_pairs(draw):
    """(a, b) where b negates a chosen subset of a's terms, often both end terms."""
    a = draw(wide_polys)
    mask = draw(st.lists(st.booleans(), min_size=len(a.coeffs), max_size=len(a.coeffs)))
    out = {a.min_exp + i: -c for i, (c, hit) in enumerate(zip(a.coeffs, mask)) if hit}
    for e, c in terms(draw(wide_polys)).items():
        out.setdefault(e, c)
    return a, LaurentPoly.from_terms(out)


# Small, negative and beyond-64-bit coefficients.
coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1]),
)


@st.composite
def strided_polys(draw):
    """Runs shaped like the closed route's: stride 1-5 by substitute_power, often palindromic.

    A near-palindrome is a palindrome with one coefficient changed.  Empty
    and one-entry draws give the zero polynomial and one-term polynomials.
    """
    half = draw(st.lists(coefficients, max_size=6))
    shape = draw(st.sampled_from(["plain", "palindrome", "near-palindrome"]))
    run = half
    if shape != "plain":
        run = half + draw(st.lists(coefficients, max_size=1)) + half[::-1]
    if shape == "near-palindrome" and run:
        run[draw(st.integers(0, len(run) - 1))] += draw(st.sampled_from([-1, 1]))
    poly = LaurentPoly(draw(st.integers(-30, 30)), tuple(run))
    return poly.substitute_power(draw(st.integers(1, 5)))


# Arbitrary supports, so the gaps between terms need not be equal: {0, 4, 6}.
sparse_polys = st.builds(
    LaurentPoly.from_terms,
    st.dictionaries(st.integers(-20, 20), st.integers(-3, 3).filter(bool), max_size=5),
)
rendered_polys = st.one_of(strided_polys(), sparse_polys, wide_polys)
positive_coefficients = st.one_of(
    st.integers(1, 9),
    st.integers(1, 2**80),
    st.sampled_from([2**64, 2**64 + 1]),
)


@st.composite
def half_palindromes(draw, elements=coefficients):
    """(half, length): the first ceil(length / 2) coefficients of a palindrome of odd or even length."""
    half = tuple(draw(st.lists(elements, min_size=1, max_size=6)))
    return half, 2 * len(half) - draw(st.integers(0, 1))


def dense_palindrome(half, length, step):
    """The palindrome's coefficients in q**step, zeros included, entry by entry from ``half``."""
    run = [0] * ((length - 1) * step + 1)
    run[::step] = [half[min(i, length - 1 - i)] for i in range(length)]
    return run


def half_size(a, b):
    """ceil(L/2) for the L = b(a-b) + 1 coefficients of [a, b]."""
    return (b * (a - b) + 2) // 2


def prefix_size(a, k):
    """Coefficients held by the row prefix [a, 0], ..., [a, k]: the first half of each row."""
    return sum(half_size(a, b) for b in range(k + 1))


@pytest.fixture
def fresh_rows(monkeypatch):
    """An empty q-binomial row cache for this test only."""
    return fresh_cache(monkeypatch)


def cache_held(rows):
    """Coefficients the cache holds, after checking that it holds exactly the half of each row."""
    for a, row in rows.rows.items():
        assert [len(c) for c in row] == [half_size(a, b) for b in range(len(row))], a
    return sum(len(c) for row in rows.rows.values() for c in row)


def rectangle_generating_function(rows, cols):
    """Independent route to the q-binomial: count partitions in the box by size."""
    return LaurentPoly.from_terms(
        {k: len(enumerate_in_rectangle(rows, cols, k)) for k in range(rows * cols + 1)}
    )


class TestCanonicalForm:
    def test_zero_is_canonical(self):
        assert LaurentPoly(5, ()) == LaurentPoly()
        assert LaurentPoly(3, (0, 0)) == LaurentPoly()
        assert LaurentPoly().is_zero
        assert LaurentPoly().coeffs == () and LaurentPoly().min_exp == 0

    def test_trimming_both_ends(self):
        p = LaurentPoly(-2, (0, 1, 2, 0))
        assert p.min_exp == -1
        assert p.coeffs == (1, 2)

    def test_from_terms(self):
        assert LaurentPoly.from_terms({2: 1, -1: 3, 0: 0}) == LaurentPoly(-1, (3, 0, 0, 1))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LaurentPoly(0, (2.5, 1)),
            lambda: LaurentPoly(1.0, (1,)),
            lambda: LaurentPoly(0, ("3",)),
            lambda: q_power(1).shift(1.5),
            lambda: LaurentPoly().shift(1.5),
            lambda: poly_from_json({"min_exp": "1", "coeffs": [1]}),
            lambda: poly_from_json({"min_exp": 0, "coeffs": [1.9]}),
        ],
        ids=["float coeff", "float min_exp", "str coeff", "float shift", "float shift of 0", "json str", "json float"],
    )
    def test_rejects_non_integers(self, build):
        with pytest.raises(TypeError):
            build()


class TestArithmetic:
    def test_add_examples(self):
        assert ONE + Q + Q == LaurentPoly(0, (1, 2))
        p = LaurentPoly(-2, (3, 0, 1))
        assert p + LaurentPoly() == p
        assert Q + q_power(1, -1) == LaurentPoly()

    def test_mul_examples(self):
        assert (ONE + Q) * difference(ONE, Q) == LaurentPoly(0, (1, 0, -1))
        p = LaurentPoly(-1, (2, 5))
        assert p * ONE == p
        assert q_power(-2) * q_power(5) == q_power(3)
        assert p * LaurentPoly() == LaurentPoly() == LaurentPoly() * p

    def test_shift_examples(self):
        assert LaurentPoly(0, (1, 0, 1)).shift(-3) == LaurentPoly(-3, (1, 0, 1))
        p = LaurentPoly(2, (1, 1))
        assert p.shift(0) == p
        assert LaurentPoly().shift(7) == LaurentPoly()

    def test_substitute_power_examples(self):
        assert (ONE + Q).substitute_power(2) == LaurentPoly(0, (1, 0, 1))
        p = LaurentPoly(-1, (1, 2, 3))
        assert p.substitute_power(1) == p
        assert LaurentPoly(0, (1, 1, 1)).substitute_power(4) == LaurentPoly.from_terms(
            {0: 1, 4: 1, 8: 1}
        )

    def test_substitute_power_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ONE.substitute_power(0)
        with pytest.raises(ValueError):
            ONE.substitute_power(-2)

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestDictReference:
    @staticmethod
    def check_sum_and_difference(a, b):
        ta, tb = terms(a), terms(b)
        keys = ta.keys() | tb.keys()
        assert as_pair(a + b) == canonical({e: ta.get(e, 0) + tb.get(e, 0) for e in keys})
        assert as_pair(difference(a, b)) == canonical({e: ta.get(e, 0) - tb.get(e, 0) for e in keys})

    @given(wide_polys, wide_polys)
    def test_add_and_sub(self, a, b):
        self.check_sum_and_difference(a, b)

    @given(cancelling_pairs())
    def test_cancelling_sums_are_trimmed(self, pair):
        a, b = pair
        self.check_sum_and_difference(a, b)
        self.check_sum_and_difference(b, a)
        assert difference(a, a) == LaurentPoly()

    @given(wide_polys, st.integers(-30, 30))
    def test_shift(self, a, k):
        assert as_pair(a.shift(k)) == canonical({e + k: c for e, c in terms(a).items()})

    @given(wide_polys, st.integers(1, 5))
    def test_substitute_power(self, a, k):
        assert as_pair(a.substitute_power(k)) == canonical({e * k: c for e, c in terms(a).items()})


class TestEvaluate:
    def test_examples(self):
        assert gauss_binomial(4, 2).evaluate(1) == 6
        assert q_power(3).evaluate(-1) == -1
        assert LaurentPoly().evaluate(5) == 0

    def test_positive_exponents_at_any_integer(self):
        p = LaurentPoly(1, (2, 0, -3))  # 2q - 3q^3
        assert p.evaluate(2) == 4 - 24

    def test_negative_exponent_at_unit(self):
        p = LaurentPoly(-3, (1, 0, 2, 1))  # q^-3 + 2 q^-1 + 1
        assert p.evaluate(-1) == -1 - 2 + 1

    @given(rendered_polys)
    def test_units_match_the_term_sums(self, p):
        assert p.evaluate(1) == sum(terms(p).values())
        assert p.evaluate(-1) == sum(c * (-1) ** (e % 2) for e, c in terms(p).items())

    def test_rejects_non_unit_with_negative_exponents(self):
        p = LaurentPoly(-1, (1,))
        with pytest.raises(ValueError):
            p.evaluate(2)
        with pytest.raises(ValueError):
            p.evaluate(0)


class TestRendering:
    def test_str_examples(self):
        assert str(LaurentPoly(-3, (1, 0, 2, 1))) == "q^-3 + 2*q^-1 + 1"
        assert str(LaurentPoly()) == "0"
        assert str(LaurentPoly(0, (1, 0, -1))) == "1 - q^2"
        assert str(LaurentPoly(1, (-2,))) == "-2*q"

    def test_json_round_trip(self):
        p = LaurentPoly(-2, (1, 0, 3))
        data = json.loads(json.dumps(p.to_json()))
        assert poly_from_json(data) == p

    @given(half_palindromes(), st.integers(1, 5), st.integers(-30, 30))
    @example(((-(2**70),), 1), 4, -7)
    @example(((2**65, 0, 0, 5), 7), 2, -9)
    @example(((2**65, 0, 0, 5), 8), 3, 0)
    @example(qpoly._half_row(9, 4), 4, 0)
    @example(qpoly._half_row(10, 5), 2, 0)
    def test_json_text_matches_json_dumps(self, palindrome, step, offset):
        """The palindrome, rendered in q**step, is json.dumps of its coefficients with the zeros."""
        half, length = palindrome
        expected = json.dumps(dense_palindrome(half, length, step))
        assert qpoly._render(half, length, step, offset, "json") == expected

    @given(half_palindromes(positive_coefficients), st.integers(1, 5), st.integers(-30, 30))
    @example(((1,), 1), 1, 0)
    @example(((1,), 1), 3, 1)
    @example(((5,), 1), 2, 1)
    @example(((1, 2), 3), 1, -1)
    @example(((1, 2), 4), 2, -4)
    @example(qpoly._half_row(9, 4), 4, -20)
    @example(qpoly._half_row(10, 5), 2, -25)
    def test_text_and_csv_match_str_and_terms(self, palindrome, step, offset):
        """With positive coefficients the text is str of the polynomial and the csv its terms."""
        half, length = palindrome
        poly = LaurentPoly(offset, tuple(dense_palindrome(half, length, step)))
        assert qpoly._render(half, length, step, offset, "text") == str(poly)
        terms_csv = "\n".join(f"{e},{poly.coefficient(e)}" for e in poly.support())
        assert qpoly._render(half, length, step, offset, "csv") == terms_csv


class TestGaussBinomial:
    def test_examples(self):
        assert gauss_binomial(2, 1) == rectangle_generating_function(1, 1)  # 1 + q
        assert gauss_binomial(2, 1) == LaurentPoly(0, (1, 1))
        for a in range(6):
            assert gauss_binomial(a, 0) == ONE
            assert gauss_binomial(a, a) == ONE
        assert gauss_binomial(4, 2) == rectangle_generating_function(2, 2)
        assert gauss_binomial(4, 2) == LaurentPoly(0, (1, 1, 2, 1, 1))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_binomial(3, -1)
        with pytest.raises(ValueError):
            gauss_binomial(2, 3)

    @pytest.mark.parametrize("args, name", [
        ((5.0, 2), "a"), ((5, 2.0), "b"), (("5", 2), "a"), ((5, None), "b"), ((2.5, 1.5), "a"),
    ], ids=repr)
    def test_non_integer_arguments_raise_type_error_naming_them(self, args, name):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
            gauss_binomial(*args)

    def test_bool_arguments_read_as_ints(self):
        assert gauss_binomial(True, False) == gauss_binomial(1, 0) == ONE
        assert gauss_binomial(2, True) == gauss_binomial(2, 1)

    def test_symmetry(self):
        for a in range(11):
            for b in range(a + 1):
                assert gauss_binomial(a, b) == gauss_binomial(a, a - b)

    def test_recursion(self):
        for a in range(1, 11):
            for b in range(1, a):
                assert gauss_binomial(a, b) == gauss_binomial(a - 1, b - 1) + gauss_binomial(
                    a - 1, b
                ).shift(b)

    def test_specializes_to_binomial_at_one(self):
        for a in range(11):
            for b in range(a + 1):
                assert gauss_binomial(a, b).evaluate(1) == math.comb(a, b)

    def test_degree_and_constant_term(self):
        for a in range(9):
            for b in range(a + 1):
                poly = gauss_binomial(a, b)
                assert poly.min_exp == 0
                assert poly.coefficient(0) == 1
                assert poly.max_exp == b * (a - b)


class TestProductStep:
    @pytest.mark.parametrize("cap", [None, 300])
    def test_matches_pascal_reference_in_shuffled_order(self, fresh_rows, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(qpoly, "_ROW_CACHE_COEFFS", cap)
        pairs = [(a, b) for a in range(61) for b in range(a + 1)]
        random.Random(2105).shuffle(pairs)
        reference = dict(enumerate(pascal_rows(60)))
        seen: set[int] = set()
        events = {"extend": 0, "evict": 0, "rebuild": 0}
        for a, b in pairs:
            row = fresh_rows.rows.get(a)
            row_len = len(row) if row is not None else 0
            rows_before = set(fresh_rows.rows)
            assert gauss_binomial(a, b) == pascal_gauss_binomial(a, b), (a, b)
            full = reference[a][min(b, a - b)]
            assert full == pascal_gauss_binomial(a, b).coeffs
            assert qpoly._half_row(a, b) == (full[: half_size(a, b)], len(full)), (a, b)
            if row is None and a in seen:
                events["rebuild"] += 1
            elif row is not None and len(row) > row_len:
                events["extend"] += 1
            if rows_before - set(fresh_rows.rows):
                events["evict"] += 1
            seen.add(a)
        assert events["extend"] > 0
        if cap is not None:
            assert events["evict"] > 0 and events["rebuild"] > 0

    @pytest.mark.slow
    def test_half_rows_match_the_full_step_up_to_200(self, fresh_rows):
        for a, rows in enumerate(pascal_rows(200)):
            for b, full in enumerate(rows):
                assert qpoly._half_row(a, b) == (full[: half_size(a, b)], len(full)), (a, b)
        assert fresh_rows.held == cache_held(fresh_rows)
        assert fresh_rows.held <= max(qpoly._ROW_CACHE_COEFFS, prefix_size(200, 100))

    @pytest.mark.parametrize("a, b", [(5000, 2), (700, 1)])
    def test_large_row_with_a_cold_cache(self, a, b):
        # a new interpreter, so the row cache starts cold
        code = f"from detstrata import gauss_binomial; print(gauss_binomial({a}, {b}).evaluate(1))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert int(proc.stdout) == math.comb(a, b)


class TestRowCache:
    def test_threads_agree_with_reference_under_eviction(self, fresh_rows, monkeypatch):
        cap = 2000
        monkeypatch.setattr(qpoly, "_ROW_CACHE_COEFFS", cap)
        pairs = [(a, b) for a in range(30, 61, 3) for b in range(a + 1)]
        expected = {pair: pascal_gauss_binomial(*pair) for pair in pairs}
        failures: list[str] = []
        finished: list[int] = []

        def worker(seed):
            order = list(pairs)
            random.Random(seed).shuffle(order)
            try:
                for a, b in order[:150]:
                    if gauss_binomial(a, b) != expected[a, b]:
                        failures.append(f"[{a}, {b}] differs")
            except Exception as exc:  # reported by the main thread
                failures.append(repr(exc))
            finished.append(seed)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for t in threads:
            assert not t.is_alive()
        assert failures == []
        assert sorted(finished) == list(range(8))
        assert fresh_rows.held == cache_held(fresh_rows)
        assert fresh_rows.held <= max(cap, prefix_size(60, 30))

    @pytest.mark.parametrize("cap", [3000, 20000])
    def test_sweep_stays_within_cap(self, fresh_rows, monkeypatch, cap):
        monkeypatch.setattr(qpoly, "_ROW_CACHE_COEFFS", cap)
        sweep = range(10, 61, 5)
        assert sum(prefix_size(a, a // 2) for a in sweep) > cap
        for a in sweep:
            for b in range(a + 1):
                gauss_binomial(a, b)
                assert fresh_rows.held == cache_held(fresh_rows)
                assert fresh_rows.held <= max(cap, prefix_size(a, len(fresh_rows.rows[a]) - 1))
        assert fresh_rows.held <= max(cap, max(prefix_size(a, a // 2) for a in sweep))
        assert list(fresh_rows.rows)[-1] == 60


class TestPascalRow:
    """The plain binomial rows that the closed strata tables read."""

    def test_matches_comb(self):
        for a in range(301):
            assert qpoly._pascal_row(a) == [math.comb(a, k) for k in range(a + 1)], a
