"""Sector enumeration, the norm-first search against the raw-lattice
oracle, frozen search fixtures and the report contract."""

from __future__ import annotations

from bisect import bisect_right

import pytest

from quadperfect import (
    QuadInt,
    Ring,
    delta_naive,
    enumerate_canonical,
    is_powerfully_perfect,
    search_odd_norm,
    search_perfect,
)
from quadperfect.primes import _iroot

from conftest import NORM2_D, norm_ball_brute


def normalized_json(report) -> dict:
    obj = report.to_json()
    obj.pop("wall_time_ms")
    return obj


class TestEnumerate:
    def test_small_fixtures(self):
        r1 = Ring(-1)
        assert list(enumerate_canonical(r1, 2)) == [r1.element(1), r1.element(1, 1)]
        r3 = Ring(-3)
        assert list(enumerate_canonical(r3, 1)) == [r3.one()]
        r7 = Ring(-7)
        # Norm 2 splits, so both conjugate classes appear beside 1.
        assert list(enumerate_canonical(r7, 2)) == [
            r7.element(1),
            r7.element(-1, 1),
            r7.element(0, 1),
        ]

    def test_matches_brute_force_ball(self, rg):
        got = list(enumerate_canonical(rg, 1000))
        assert len(got) == len(set(got))
        assert set(got) == norm_ball_brute(rg, 1000)
        keys = [z.sort_key() for z in got]
        assert keys == sorted(keys)
        for z in got[:50]:
            assert z.in_fundamental_sector()
            assert 1 <= z.norm() <= 1000

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_canonical(Ring(-1), 0))


class TestSearchPerfect:
    def test_gauss_bound_100(self):
        rg = Ring(-1)
        rep = search_perfect(rg, 2, 2, 100)
        assert rep.hits == [rg.element(3, 9), rg.element(9, 3)]
        assert all(z.norm() == 90 for z in rep.hits)

    def test_gauss_t3(self):
        rg = Ring(-1)
        rep = search_perfect(rg, 2, 3, 2000)
        assert rg.element(30, 30) in rep.hits

    def test_frozen_gauss_10k(self):
        rg = Ring(-1)
        rep = search_perfect(rg, 2, 2, 10**4)
        assert rep.hits == [rg.element(3, 9), rg.element(9, 3)]
        assert rep.elements_scanned == 7854

    def test_frozen_d11_10k(self):
        rg = Ring(-11)
        rep = search_perfect(rg, 2, 2, 10**4)
        assert rep.hits == [
            rg.element(-8, 2),
            rg.element(-6, 4),
            rg.element(2, 4),
            rg.element(6, 2),
        ]
        assert all(z.norm() == 60 for z in rep.hits)
        assert rep.elements_scanned == 9478

    @pytest.mark.parametrize(
        "d,scanned,norms", [(-1, 785387, {90}), (-7, 1187379, {28, 8128})]
    )
    def test_frozen_1e6(self, d, scanned, norms):
        rep = search_perfect(Ring(d), 2, 2, 10**6)
        assert rep.elements_scanned == scanned
        assert {z.norm() for z in rep.hits} == norms

    def test_inert_two_rings_empty_small(self):
        for d in (-163, -67, -43):
            rep = search_perfect(Ring(d), 2, 2, 3000)
            assert rep.hits == []

    def test_hits_satisfy_predicate_and_sector(self):
        rep = search_perfect(Ring(-7), 2, 2, 10**4)
        assert len(rep.hits) == 6
        for z in rep.hits:
            assert z.in_fundamental_sector()
            assert is_powerfully_perfect(2, 2, z)

    def test_conjugation_closure(self):
        for d in (-1, -2, -7, -11):
            rep = search_perfect(Ring(d), 2, 2, 10**4)
            hit_set = set(rep.hits)
            assert {z.conjugate().canonical_associate() for z in hit_set} == hit_set

    def test_report_fields(self):
        rg = Ring(-2)
        rep = search_perfect(rg, 2, 2, 500)
        assert rep.ring is rg and rep.n == 2 and rep.t == 2
        assert rep.norm_bound == 500 and not rep.odd_norm
        assert rep.wall_time_ms >= 0
        assert rep.backend == "norm"
        obj = rep.to_json()
        assert set(obj) == {
            "ring",
            "n",
            "t",
            "norm_bound",
            "hits",
            "elements_scanned",
            "wall_time_ms",
            "odd_norm",
            "hit_checks",
            "backend",
        }

    def test_determinism(self):
        a = normalized_json(search_perfect(Ring(-3), 2, 2, 4000))
        b = normalized_json(search_perfect(Ring(-3), 2, 2, 4000))
        assert a == b

    def test_validation(self):
        rg = Ring(-1)
        for n, t, bound in [(3, 2, 10), (0, 2, 10), (-2, 2, 10), (2, 1, 10), (2, 2, 0)]:
            with pytest.raises(ValueError):
                search_perfect(rg, n, t, bound)

    def test_higher_exponent_no_small_hit(self):
        # delta(4, z) = t*N^2 has no small hit.
        rep = search_perfect(Ring(-1), 4, 2, 400)
        assert rep.hits == []


class TestLatticeOracle:
    """The norm-first search against the raw coordinate box reduced to
    canonical associates and filtered by the naive divisor sum."""

    BOUND = 300

    def brute(self, rg, n, t, odd_only):
        """The hits in the ball of radius BOUND and the ball's norms, both
        in (norm, a, b) order."""
        ball = sorted(norm_ball_brute(rg, self.BOUND), key=QuadInt.sort_key)
        if odd_only:
            ball = [z for z in ball if z.norm() % 2]
        hits = [z for z in ball if delta_naive(n, z) == t * z.norm() ** (n // 2)]
        return hits, [z.norm() for z in ball]

    @pytest.mark.parametrize("n,t", [(2, 2), (2, 3), (4, 2), (4, 3)])
    def test_search_perfect(self, rg, n, t):
        rep = search_perfect(rg, n, t, self.BOUND)
        hits, norms = self.brute(rg, n, t, False)
        assert (rep.hits, rep.elements_scanned) == (hits, len(norms))

    def test_search_odd_norm(self, rg):
        rep = search_odd_norm(rg, self.BOUND)
        hits, norms = self.brute(rg, 2, 2, True)
        assert (rep.hits, rep.elements_scanned) == (hits, len(norms))

    @pytest.mark.parametrize("d", [-1, -2, -7, -11])
    @pytest.mark.parametrize(
        "n,t,odd_only", [(2, 2, False), (2, 3, False), (4, 2, False), (2, 2, True)]
    )
    def test_every_bound(self, d, n, t, odd_only):
        # Every bound up to BOUND, so hits at N = bound and norms whose last
        # prime sits on the boundary p^2 = bound / m are all reached.
        rg = Ring(d)
        hits, norms = self.brute(rg, n, t, odd_only)
        for bound in range(1, self.BOUND + 1):
            if odd_only:
                rep = search_odd_norm(rg, bound)
            else:
                rep = search_perfect(rg, n, t, bound)
            assert rep.hits == [z for z in hits if z.norm() <= bound], bound
            assert rep.elements_scanned == bisect_right(norms, bound), bound


def test_iroot():
    for k in range(1, 6):
        for x in [*range(1, 3000), 10**60 - 1, 10**60, 10**60 + 1]:
            r = _iroot(x, k)
            assert r**k <= x < (r + 1) ** k, (x, k)


class TestOddNormScan:
    def test_zero_hits_small(self):
        for d in NORM2_D:
            rep = search_odd_norm(Ring(d), 10**4)
            assert rep.odd_norm
            assert rep.hits == []
            assert rep.hit_checks == []

    def test_scanned_counts_only_odd_norms(self):
        rg = Ring(-1)
        rep = search_odd_norm(rg, 2000)
        odd = sum(1 for z in enumerate_canonical(rg, 2000) if z.norm() % 2)
        assert rep.elements_scanned == odd

    def test_inert_rings_allowed(self):
        # The odd-norm scan runs in every ring, not just the three with a
        # norm-2 prime.
        rep = search_odd_norm(Ring(-19), 3000)
        assert rep.hits == []
