import dataclasses
import random

import pytest

from detstrata import (
    IntegerWeight,
    MatrixSpace,
    cauchy_exterior,
    enumerate_in_rectangle,
    lambda_extension,
    member_general,
    member_skew,
    member_symmetric,
    multiplicity,
    skew_exterior_partitions,
    spaces,
    symmetric_exterior_partitions,
)
from detstrata.characters import _durfee_candidates, _general_candidates
from detstrata.plethysm import _exterior_weights, _frobenius_weight

from helpers import (
    decompose_into_schur,
    dominant_box,
    dual,
    restated_member_skew,
    restated_member_symmetric,
    sym2_weights,
    sym_power_character,
    to_weight,
    wedge2_weights,
)


def W(*entries):
    return IntegerWeight(entries)


def decreasing(values):
    return tuple(sorted(values, reverse=True))


def random_symmetric_weight(rng, n):
    """A dominant weight with the parities of a random stratum.

    With k = n - p: every entry even for k odd, else the first k entries odd and the rest even.
    """
    k = rng.randint(0, n)
    j = 0 if k % 2 else k  # the count of odd entries, on top
    below = decreasing(2 * rng.randint(0, n) for _ in range(n - j))
    floor = below[0] if below else 0
    return decreasing(floor + 1 + 2 * rng.randint(0, n) for _ in range(j)) + below


def random_skew_weight(rng, n):
    """A dominant weight with the pairings of a random stratum, and for n odd its pinned pivot."""
    def pairs(lo, hi, count):
        return tuple(a for a in decreasing(rng.randint(lo, hi) for _ in range(count)) for _ in (0, 1))

    if n % 2 == 0:
        return pairs(0, 2 * n, n // 2)
    k = n - 2 * rng.randint(0, n // 2)
    return pairs(k - 1, 2 * n, k // 2) + (k - 1,) + pairs(0, k - 1, n // 2 - k // 2)


def check_beyond_n_6(space_of, build, member, restated):
    """Check ``member`` against ``restated`` at every stratum of ``space_of(n)`` for n = 7..12.

    The weights are every summand weight of the space and 400 seeded random
    dominant weights, half built by ``build`` to meet a stratum's parities
    or pairings.  Returns each (n, k % 2, verdict) seen, k = n - rank_step * p.
    """
    rng = random.Random(7)
    seen = set()
    for n in range(7, 13):
        space = space_of(n)
        shift, step = space.record.shift, space.record.rank_step
        weights = [w for i in range(space.dim + 1) for w in _exterior_weights(shift, n, i)]
        for _ in range(200):
            weights.append(build(rng, n))
            weights.append(decreasing(rng.randint(0, 2 * n) for _ in range(n)))
        for entries in weights:
            w = IntegerWeight(entries)
            for p in space.strata:
                verdict = member(w, p)
                assert verdict == restated(entries, p), (entries, p)
                seen.add((n, (n - step * p) % 2, verdict))
    return seen


class TestLambdaExtension:
    def test_examples(self):
        assert lambda_extension(W(3, 1), 1, 3) == W(2, 1, 1)
        assert lambda_extension(W(2, 2), 2, 2) == W(2, 2)

    def test_rejects_non_dominant_result(self):
        # splicing 0s after the entry 2 would need 0 >= 2
        with pytest.raises(ValueError):
            lambda_extension(W(2), 0, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            lambda_extension(W(1, 0), 3, 4)  # s > n
        with pytest.raises(ValueError):
            lambda_extension(W(1, 0, 0), 1, 2)  # n > m


class TestMemberGeneral:
    def test_examples(self):
        for n in range(1, 4):
            for m in range(n, 5):
                assert member_general(IntegerWeight((m,) * n), m, 0)
                assert member_general(IntegerWeight((0,) * n), m, n)
        assert not member_general(W(0, 0), 3, 0)
        assert not member_general(W(0, 0, 0), 3, 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            member_general(W(0, 0), 2, 3)
        with pytest.raises(ValueError):
            member_general(W(0, 0), 2, -1)
        with pytest.raises(ValueError):
            member_general(W(0, 0, 0), 2, 0)  # n > m

    def test_matches_the_inequalities_with_infinite_boundaries(self):
        # entry 0 reads +inf and entry n + 1 reads -inf
        for n in range(1, 5):
            for entries in dominant_box(n, 4):
                e = [float("inf"), *entries, float("-inf")]
                for m in range(n, 6):
                    for p in range(n + 1):
                        expected = e[n - p] >= m - p and e[n - p + 1] <= n - p
                        assert member_general(IntegerWeight(entries), m, p) == expected

    def test_accepted_weights_extend_dominantly(self):
        for n in range(1, 6):
            for m in range(n, 6):
                for entries in dominant_box(n):
                    w = IntegerWeight(entries)
                    for p in range(n + 1):
                        if member_general(w, m, p):
                            lambda_extension(w, n - p, m)  # must not raise


class TestMemberSymmetric:
    def test_examples(self):
        assert member_symmetric(W(0, 0), 2)
        assert member_symmetric(W(2, 0), 1)
        assert not member_symmetric(W(1, 1), 1)

    def test_rejects_bad_stratum(self):
        with pytest.raises(ValueError):
            member_symmetric(W(0, 0), 3)

    def test_matches_the_inequalities_with_infinite_boundaries(self):
        # entry 0 reads +inf and entries n + 1, n + 2 read -inf
        for n in range(1, 6):
            for entries in dominant_box(n):
                for p in range(n + 1):
                    expected = restated_member_symmetric(entries, p)
                    assert member_symmetric(IntegerWeight(entries), p) == expected, (entries, p)

    def test_matches_the_inequalities_beyond_n_6(self):
        seen = check_beyond_n_6(MatrixSpace.symmetric, random_symmetric_weight, member_symmetric,
                                restated_member_symmetric)
        # both blocks' parities (k odd and even) at n odd and even, each accepting and rejecting
        assert seen == {(n, b, v) for n in range(7, 13) for b in (0, 1) for v in (False, True)}

    def test_full_space_stratum_matches_classical_decomposition(self):
        # Sym(Sym^2 C^n) = sum of S_mu over even mu; the stratum-n predicate
        # must accept exactly the duals of those mu.
        for n in range(1, 4):
            for d in range(5):
                mults = decompose_into_schur(sym_power_character(sym2_weights(n), d), n)
                assert all(c == 1 for c in mults.values())
                brute = set(mults)
                predicted = {
                    mu.parts
                    for mu in enumerate_in_rectangle(n, 2 * d, 2 * d)
                    if member_symmetric(dual(to_weight(mu, n)), n)
                }
                assert brute == predicted, (n, d)


class TestMemberSkew:
    def test_examples(self):
        assert member_skew(W(0, 0, 0, 0), 2)
        assert member_skew(W(2, 2, 1, 1), 1)
        assert member_skew(W(4, 4, 4, 4, 4), 0)

    def test_more_frozen_values(self):
        # values of the n = 4 pairing conditions at stratum 1:
        # needs w2 >= 1, w3 <= 2 and the pairing w1 = w2, w3 = w4
        assert member_skew(W(1, 1, 0, 0), 1)
        assert member_skew(W(3, 3, 2, 2), 1)
        assert not member_skew(W(2, 1, 1, 0), 1)
        assert not member_skew(W(2, 2, 2, 0), 1)
        assert not member_skew(W(3, 3, 3, 3), 1)

    def test_rejects_bad_stratum(self):
        with pytest.raises(ValueError):
            member_skew(W(0, 0, 0, 0), 3)

    def test_matches_the_inequalities_with_infinite_boundaries(self):
        # entry 0 reads +inf and entry n + 1 reads -inf
        for n in range(2, 7):
            for entries in dominant_box(n):
                for p in range(n // 2 + 1):
                    expected = restated_member_skew(entries, p)
                    assert member_skew(IntegerWeight(entries), p) == expected, (entries, p)

    def test_matches_the_inequalities_beyond_n_6(self):
        seen = check_beyond_n_6(MatrixSpace.skew, random_skew_weight, member_skew, restated_member_skew)
        # k = n - 2p has the parity of n: the even and the odd branch, each accepting and rejecting
        assert seen == {(n, n % 2, v) for n in range(7, 13) for v in (False, True)}

    def test_full_space_stratum_matches_classical_decomposition(self):
        # Sym(wedge^2 C^n) = sum of S_mu over mu with even columns
        for n in range(2, 6):
            for d in range(5):
                mults = decompose_into_schur(sym_power_character(wedge2_weights(n), d), n)
                assert all(c == 1 for c in mults.values())
                brute = set(mults)
                predicted = {
                    mu.parts
                    for mu in enumerate_in_rectangle(n, 2 * d, 2 * d)
                    if member_skew(dual(to_weight(mu, n)), n // 2)
                }
                assert brute == predicted, (n, d)


class TestDisjointness:
    def test_general(self):
        for n in range(1, 6):
            for m in range(n, 6):
                for entries in dominant_box(n):
                    w = IntegerWeight(entries)
                    hits = [p for p in range(n + 1) if member_general(w, m, p)]
                    assert len(hits) <= 1, (m, n, entries, hits)

    def test_symmetric(self):
        for n in range(1, 6):
            for entries in dominant_box(n):
                w = IntegerWeight(entries)
                hits = [p for p in range(n + 1) if member_symmetric(w, p)]
                assert len(hits) <= 1, (n, entries, hits)

    def test_skew(self):
        for n in range(2, 6):
            for entries in dominant_box(n):
                w = IntegerWeight(entries)
                hits = [p for p in range(n // 2 + 1) if member_skew(w, p)]
                assert len(hits) <= 1, (n, entries, hits)


class TestCandidateRules:
    """Each stratum's rule lists distinct summands and misses none of its members."""

    def test_general(self):
        for n in range(1, 7):
            for m in range(n, 8):
                summands = [mu for i in range(m * n + 1) for mu in cauchy_exterior(m, n, i)]
                for p in range(n + 1):
                    members = {
                        mu.parts
                        for mu in summands
                        if member_general(to_weight(mu, n), m, p)
                        and to_weight(mu.conjugate(), m)
                        == lambda_extension(to_weight(mu, n), n - p, m)
                    }
                    got = list(_general_candidates(n, m, p))
                    assert len(got) == len(set(got))
                    assert members <= set(got), (m, n, p)

    @pytest.mark.parametrize(
        "space_of, sizes, summands, member, shift, rank_step",
        [
            (MatrixSpace.symmetric, range(1, 11), symmetric_exterior_partitions, member_symmetric,
             1, 1),
            (MatrixSpace.skew, range(2, 13), skew_exterior_partitions, member_skew, 0, 2),
        ],
        ids=["symmetric", "skew"],
    )
    def test_symmetric_and_skew(self, space_of, sizes, summands, member, shift, rank_step):
        for n in sizes:
            space = space_of(n)
            weights = [to_weight(lam, n) for i in range(space.dim + 1) for lam in summands(n, i)]
            for p in space.strata:
                members = {w.entries for w in weights if member(w, p)}
                got = [
                    _frobenius_weight(shift, n, r, alpha)
                    for r, alpha in _durfee_candidates(n, rank_step * p, shift)
                ]
                assert None not in got
                assert len(got) == len(set(got))
                assert members <= set(got), (n, p)


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity(MatrixSpace.general(2, 2), 2, W(0, 0)) == 1
        assert multiplicity(MatrixSpace.symmetric(2), 1, W(1, 1)) == 0
        assert multiplicity(MatrixSpace.skew(4), 2, W(0, 0, 0, 0)) == 1

    def test_reads_the_predicate_from_the_record(self, monkeypatch):
        members = [
            (MatrixSpace.general(2, 2), 2, W(0, 0)),
            (MatrixSpace.symmetric(2), 2, W(0, 0)),
            (MatrixSpace.skew(4), 2, W(0, 0, 0, 0)),
        ]
        assert [multiplicity(*case) for case in members] == [1, 1, 1]
        for family, record in list(spaces.FAMILIES.items()):
            monkeypatch.setitem(
                spaces.FAMILIES, family, dataclasses.replace(record, member=lambda *a: False)
            )
        assert [multiplicity(*case) for case in members] == [0, 0, 0]

    def test_rejects_mismatched_weight_length(self):
        with pytest.raises(ValueError):
            multiplicity(MatrixSpace.symmetric(3), 1, W(0, 0))

    def test_rejects_bad_stratum(self):
        with pytest.raises(ValueError):
            multiplicity(MatrixSpace.skew(4), 3, W(0, 0, 0, 0))
