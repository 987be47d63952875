"""The one-pass enumeration route against the per-stratum oracle, and its per-space cache."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import threading

import pytest
from helpers import per_stratum_gf_enum

import detstrata
from detstrata import (
    MatrixSpace,
    chi_from_enumeration,
    derham,
    euler_closed,
    inv_derham_gf_closed,
    inv_derham_gf_enum,
    obstructions,
    plethysm,
    qpoly,
    signed_micro,
    solve_euler,
    spaces,
)

ORACLE_RANGE = (
    [MatrixSpace.general(m, n) for n in range(1, 7) for m in range(n, 8)]
    + [MatrixSpace.symmetric(n) for n in range(1, 11)]
    + [MatrixSpace.skew(n) for n in range(2, 13)]
)

# More spaces than the cache holds, each cheap to enumerate.
EVICTION_SWEEP = (
    [MatrixSpace.general(m, 1) for m in range(1, 41)]
    + [MatrixSpace.general(m, 2) for m in range(2, 42)]
    + [MatrixSpace.symmetric(n) for n in range(1, 9)]
    + [MatrixSpace.skew(n) for n in range(2, 10)]
)


@pytest.fixture
def fresh_enum_cache():
    derham._enum_all.cache_clear()
    yield derham._enum_all
    derham._enum_all.cache_clear()


class TestAgainstPerStratumOracle:
    def test_every_stratum_in_range(self, fresh_enum_cache):
        for space in ORACLE_RANGE:
            for p in space.strata:
                assert inv_derham_gf_enum(space, p) == per_stratum_gf_enum(space, p), (
                    str(space),
                    p,
                )

    def test_never_consults_the_closed_route(self, fresh_enum_cache, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the enumeration route consulted a closed form")

        for module in (detstrata, derham, qpoly):
            monkeypatch.setattr(module, "gauss_binomial", forbidden)
        for module in (detstrata, derham):
            monkeypatch.setattr(module, "inv_derham_gf_closed", forbidden)
        for module in (detstrata, obstructions):
            monkeypatch.setattr(module, "chi_closed", forbidden)
            monkeypatch.setattr(module, "euler_closed", forbidden)
        for space in (MatrixSpace.general(5, 4), MatrixSpace.symmetric(7), MatrixSpace.skew(9)):
            for p in space.strata:
                assert inv_derham_gf_enum(space, p) == per_stratum_gf_enum(space, p)
            chi_from_enumeration(space)


class TestSpaceCache:
    def test_one_pass_per_space_including_reduced_spaces(self, fresh_enum_cache):
        spaces = [MatrixSpace.general(m, n) for n in range(1, 5) for m in range(n, 5)]
        for space in spaces:
            for p in space.strata:
                inv_derham_gf_enum(space, p)
            chi_from_enumeration(space)
        # every reduced space general(m-i, n-i) is itself in the sweep
        assert fresh_enum_cache.cache_info().misses == len(spaces)

    def test_a_bad_stratum_is_refused_before_any_pass(self, fresh_enum_cache):
        space = MatrixSpace.general(6, 6)
        for p, error in ((7, ValueError), (-1, ValueError), (1.0, TypeError)):
            with pytest.raises(error):
                inv_derham_gf_enum(space, p)
        assert fresh_enum_cache.cache_info().misses == 0

    def test_sweep_beyond_the_cap_stays_within_it(self, fresh_enum_cache):
        cap = derham._ENUM_CACHE_SPACES
        assert cap >= 64
        assert len(EVICTION_SWEEP) > cap
        for space in EVICTION_SWEEP:
            for p in space.strata:
                inv_derham_gf_enum(space, p)
                assert fresh_enum_cache.cache_info().currsize <= cap
        info = fresh_enum_cache.cache_info()
        assert info.currsize == cap
        assert info.misses == len(EVICTION_SWEEP)

    def test_cold_results_equal_warm_in_shuffled_order(self):
        spaces = [s for s in ORACLE_RANGE if s.dim <= 30]
        queries = [["gf", s.family, s.n, s.m, p] for s in spaces for p in s.strata]
        queries += [["chi", s.family, s.n, s.m, None] for s in spaces]

        def answer(kind, family, n, m, p):
            space = MatrixSpace(family, n, m)
            if kind == "gf":
                return inv_derham_gf_enum(space, p).to_json()
            return chi_from_enumeration(space).to_json()

        for _ in range(2):  # the second round reads a warm cache
            warm = {json.dumps(q): answer(*q) for q in queries}
        src = os.path.dirname(os.path.dirname(os.path.abspath(detstrata.__file__)))
        script = (
            "import json, random, sys\n"
            "from detstrata import MatrixSpace, chi_from_enumeration, inv_derham_gf_enum\n"
            "queries = json.loads(sys.stdin.read())\n"
            "random.Random(int(sys.argv[1])).shuffle(queries)\n"
            "out = {}\n"
            "for kind, family, n, m, p in queries:\n"
            "    space = MatrixSpace(family, n, m)\n"
            "    out[json.dumps([kind, family, n, m, p])] = (\n"
            "        inv_derham_gf_enum(space, p).to_json() if kind == 'gf'\n"
            "        else chi_from_enumeration(space).to_json())\n"
            "print(json.dumps(out))\n"
        )
        for seed in (1, 2):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(seed)],
                input=json.dumps(queries), env={**os.environ, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == warm

    def test_threads_agree_with_oracle_under_eviction(self, fresh_enum_cache):
        pairs = [(space, p) for space in EVICTION_SWEEP for p in space.strata]
        expected = {pair: per_stratum_gf_enum(*pair) for pair in pairs}
        failures: list[str] = []
        finished: list[int] = []

        def worker(seed):
            order = list(pairs)
            random.Random(seed).shuffle(order)
            try:
                for space, p in order[:150]:
                    if inv_derham_gf_enum(space, p) != expected[space, p]:
                        failures.append(f"{space} p={p} differs")
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
        info = fresh_enum_cache.cache_info()
        assert info.currsize <= derham._ENUM_CACHE_SPACES
        assert info.misses > derham._ENUM_CACHE_SPACES


class TestLeafCheckIsLive:
    """The candidate rules prune, but every candidate still meets the full predicate."""

    SPACES = (
        [MatrixSpace.general(m, n) for n, m in ((1, 1), (3, 5), (4, 4), (6, 7))]
        + [MatrixSpace.symmetric(n) for n in (1, 6, 9)]
        + [MatrixSpace.skew(n) for n in (2, 7, 10)]
    )

    def test_a_predicate_that_rejects_everything_counts_nothing(
        self, fresh_enum_cache, monkeypatch
    ):
        for space in self.SPACES:
            assert not all(inv_derham_gf_enum(space, p).is_zero for p in space.strata)
        fresh_enum_cache.cache_clear()
        for family, record in list(spaces.FAMILIES.items()):
            monkeypatch.setitem(
                spaces.FAMILIES, family, dataclasses.replace(record, member=lambda *args: False)
            )
        for space in self.SPACES:
            for p in space.strata:
                assert inv_derham_gf_enum(space, p).is_zero, (str(space), p)

    def test_a_box_that_holds_nothing_counts_nothing(self, fresh_enum_cache, monkeypatch):
        for module in (derham, plethysm):
            monkeypatch.setattr(module, "_in_box", lambda *args: False)
        for space in self.SPACES:
            for p in space.strata:
                assert inv_derham_gf_enum(space, p).is_zero, (str(space), p)

    def test_a_failing_general_pairing_counts_nothing(self, fresh_enum_cache, monkeypatch):
        monkeypatch.setattr(derham, "_extend", lambda *args: None)
        for space in self.SPACES:
            for p in space.strata:
                poly = inv_derham_gf_enum(space, p)
                if space.family == detstrata.GENERAL:
                    assert poly.is_zero, (str(space), p)
                else:
                    assert poly == per_stratum_gf_enum(space, p), (str(space), p)


def test_two_routes_agree_far_beyond_the_acceptance_range():
    spaces = (
        [MatrixSpace.general(m, n) for n in range(1, 13) for m in range(n, min(n + 2, 12) + 1)]
        + [MatrixSpace.symmetric(n) for n in range(1, 17)]
        + [MatrixSpace.skew(n) for n in range(2, 19)]
    )
    for space in spaces:
        for p in space.strata:
            assert inv_derham_gf_enum(space, p) == inv_derham_gf_closed(space, p), (str(space), p)
        solved = solve_euler(chi_from_enumeration(space), signed_micro(space))
        assert solved == euler_closed(space), str(space)


@pytest.mark.slow
def test_two_routes_agree_beyond_the_acceptance_range():
    spaces = (
        [MatrixSpace.general(m, n) for n in range(1, 9) for m in range(n, 9)]
        + [MatrixSpace.symmetric(n) for n in range(1, 13)]
        + [MatrixSpace.skew(n) for n in range(2, 15)]
    )
    for space in spaces:
        for p in space.strata:
            assert inv_derham_gf_enum(space, p) == inv_derham_gf_closed(space, p), (str(space), p)
        solved = solve_euler(chi_from_enumeration(space), signed_micro(space))
        assert solved == euler_closed(space), str(space)
