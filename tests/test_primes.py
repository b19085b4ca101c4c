"""Integer substrate, rational prime classification, primes above p and
unique factorization of ring elements."""

from __future__ import annotations

import functools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadperfect import (
    NotPrime,
    PrimeClass,
    Ring,
    TooLarge,
    ZeroElement,
    classify_rational_prime,
    factor,
    factor_rational,
    is_prime,
    is_quadratic_prime,
    prime_above,
    split_prime_pair,
    valuation,
)
from quadperfect.primes import IntFactorization, int_valuation

from conftest import NORM2_D, norm_ball_brute


def sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return flags


PRIMES_BELOW_2000 = [p for p, prime in enumerate(sieve(1999)) if prime]
PRIMES_NEAR_BOUND = [
    n for n in range(999001, 1001000, 2) if all(n % p for p in PRIMES_BELOW_2000)
]


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@functools.cache
def brute_of_prime_norm(d: int) -> dict[int, set]:
    """Canonical elements of each prime norm p < 2000, from the raw
    lattice box."""
    out: dict[int, set] = {p: set() for p in PRIMES_BELOW_2000}
    for z in norm_ball_brute(Ring(d), 1999):
        if z.norm() in out:
            out[z.norm()].add(z)
    return out


class TestIntegerSubstrate:
    def test_is_prime_matches_sieve(self):
        flags = sieve(20000)
        for n in range(20001):
            assert is_prime(n) == flags[n], n

    def test_is_prime_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)
        assert is_prime(1000003)
        assert not is_prime(1000003 * 1000033)

    def test_is_prime_refuses_beyond_witness_range(self):
        # A witness proves compositeness at any size; a probable prime
        # beyond the deterministic range cannot be certified.
        assert not is_prime(10**25 + 7)
        with pytest.raises(TooLarge):
            is_prime(2**89 - 1)

    def test_factor_rational_reconstructs(self):
        for n in list(range(1, 2000)) + [2**40, 3**25, 10**12 + 39]:
            fac = factor_rational(n)
            assert math.prod(p**e for p, e in fac) == n
            ps = [p for p, _ in fac.factors]
            assert ps == sorted(ps) and len(ps) == len(set(ps))
            assert all(is_prime(p) and e >= 1 for p, e in fac.factors)

    def test_factor_rational_needs_rho(self):
        # Both factors sit above the trial-division bound.
        fac = factor_rational(1000003 * 1000033)
        assert fac.factors == ((1000003, 1), (1000033, 1))

    def test_factor_rational_prime_powers_beyond_witness_range(self):
        # Rho would need about sqrt(p) steps on p^2; the perfect-power test
        # takes the root first.
        p, q = 256592474325833, 10000019
        assert factor_rational(p**2).factors == ((p, 2),)
        assert factor_rational(2 * p**3 * q).factors == ((2, 1), (q, 1), (p, 3))
        assert factor_rational(q**2 * p**2).factors == ((q, 2), (p, 2))

    def test_factor_rational_prime_cofactor(self):
        q = 10**20 + 39
        assert factor_rational(q).factors == ((q, 1),)
        assert factor_rational(7 * q).factors == ((7, 1), (q, 1))
        # Exponents past the first twelve primes.
        p, r = 1000003, 1000033
        assert factor_rational(3 * p**43).factors == ((3, 1), (p, 43))
        assert factor_rational((p * r) ** 41).factors == ((p, 41), (r, 41))
        # The edge of the wheel: 999983 is the last prime it divides out,
        # and a root that needs rho is split after the perfect-power test.
        s, t = 999983, 1000037
        assert factor_rational(s * p).factors == ((s, 1), (p, 1))
        assert factor_rational(p**2).factors == ((p, 2),)
        assert factor_rational(7**2 * p**2).factors == ((7, 2), (p, 2))
        assert factor_rational((p * r) ** 2).factors == ((p, 2), (r, 2))
        assert factor_rational(p * r * t).factors == ((p, 1), (r, 1), (t, 1))
        assert factor_rational((7 * p) ** 3 * 11).factors == ((7, 3), (11, 1), (p, 3))

    def test_factor_rational_probable_prime_cofactor_refused(self):
        with pytest.raises(TooLarge):
            factor_rational(5 * (2**89 - 1))

    @given(
        st.lists(st.sampled_from(PRIMES_BELOW_2000[:40]), max_size=6),
        st.integers(10**6, 10**15),
        st.integers(1, 3),
    )
    def test_factor_rational_smooth_times_prime_power(self, small, lo, e):
        big = next_prime(lo)
        counts = {p: small.count(p) for p in small}
        counts[big] = e
        n = math.prod(small) * big**e
        assert factor_rational(n).factors == tuple(sorted(counts.items()))

    @settings(max_examples=25)
    @given(
        st.lists(st.sampled_from(PRIMES_BELOW_2000[:40]), max_size=6),
        st.lists(st.sampled_from(PRIMES_NEAR_BOUND), min_size=2, max_size=2, unique=True),
        st.integers(1, 2),
    )
    def test_factor_rational_smooth_times_two_primes_near_bound(self, small, pq, e):
        # P and Q sit just below or just above the trial bound 10^6: the
        # wheel divides out a prime below it, rho splits off primes above it.
        counts = {p: small.count(p) for p in small}
        counts.update((p, e) for p in pq)
        n = math.prod(small) * math.prod(pq) ** e
        assert factor_rational(n).factors == tuple(sorted(counts.items()))

    def test_factor_rational_prime_cofactor_is_fast(self):
        # Trial division to sqrt(P) would take about 2.7e5 wheel steps each.
        rng = random.Random(22)
        cases = []
        for _ in range(100):
            s = math.prod(rng.choices((2, 3, 7, 11, 13, 101), k=rng.randint(0, 4)))
            cases.append((s, next_prime(rng.randrange(10**13, 10**14 - 100))))
        start = time.perf_counter()
        facs = [factor_rational(s * big) for s, big in cases]
        elapsed = time.perf_counter() - start
        for (s, big), fac in zip(cases, facs):
            assert fac.factors[-1] == (big, 1)
            assert math.prod(p**e for p, e in fac) == s * big
        assert elapsed < 1, elapsed

    def test_factor_rational_rejects_nonpositive(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                factor_rational(n)

    def test_iter(self):
        assert list(IntFactorization(12, ((2, 2), (3, 1)))) == [(2, 2), (3, 1)]

    def test_int_valuation(self):
        assert int_valuation(2, 48) == 4
        assert int_valuation(3, 48) == 1
        assert int_valuation(5, 48) == 0
        assert int_valuation(7, -49) == 2
        with pytest.raises(NotPrime):
            int_valuation(4, 48)
        with pytest.raises(ZeroElement):
            int_valuation(2, 0)


class TestClassification:
    def test_against_residue_oracle(self, rg):
        # Independent oracle: for odd p, d mod p is zero, a nonzero square
        # or a non-square; for p=2 the discriminant residue mod 8 decides.
        flags = sieve(1000)
        for p in range(2, 1000):
            if not flags[p]:
                continue
            if p == 2:
                if rg.d % 4 in (2, 3):
                    expect = PrimeClass.RAMIFIED
                elif rg.d % 8 == 1:
                    expect = PrimeClass.SPLIT
                else:
                    expect = PrimeClass.INERT
            else:
                squares = {x * x % p for x in range(1, p)}
                if rg.d % p == 0:
                    expect = PrimeClass.RAMIFIED
                elif rg.d % p in squares:
                    expect = PrimeClass.SPLIT
                else:
                    expect = PrimeClass.INERT
            assert classify_rational_prime(p, rg) is expect, (p, rg.d)

    def test_two_by_ring(self):
        table = {-1: "ramified", -2: "ramified", -7: "split"}
        for d in (-1, -2, -3, -7, -11, -19, -43, -67, -163):
            cls = classify_rational_prime(2, Ring(d))
            assert cls.value == table.get(d, "inert")

    def test_rejects_nonprimes(self, rg):
        for bad in (0, 1, 4, 91):
            with pytest.raises(NotPrime):
                classify_rational_prime(bad, rg)


class TestPrimesAbove:
    def test_fixtures(self):
        assert prime_above(5, Ring(-1)) == Ring(-1).element(2, 1)
        assert prime_above(2, Ring(-1)) == Ring(-1).element(1, 1)
        assert prime_above(2, Ring(-2)) == Ring(-2).element(0, 1)
        assert prime_above(2, Ring(-7)) == Ring(-7).element(0, 1)
        assert prime_above(3, Ring(-1)) == Ring(-1).element(3, 0)
        assert prime_above(41, Ring(-163)) == Ring(-163).element(0, 1)

    def test_inert_primes_stay_rational(self, rg):
        brute = brute_of_prime_norm(rg.d)
        for p in PRIMES_BELOW_2000:
            if classify_rational_prime(p, rg) is PrimeClass.INERT:
                z = prime_above(p, rg)
                assert z == rg.element(p)
                assert z.norm() == p * p
                assert not brute[p], p

    def test_nontrivial_primes_have_norm_p(self, rg):
        brute = brute_of_prime_norm(rg.d)
        for p in PRIMES_BELOW_2000:
            cls = classify_rational_prime(p, rg)
            if cls is PrimeClass.INERT:
                continue
            z = prime_above(p, rg)
            assert z.norm() == p
            assert z.in_fundamental_sector()
            assert is_quadratic_prime(z)
            assert z in brute[p], p

    def test_ramified_square_is_associate_of_p(self, rg):
        brute = brute_of_prime_norm(rg.d)
        for p in PRIMES_BELOW_2000:
            if classify_rational_prime(p, rg) is PrimeClass.RAMIFIED:
                z = prime_above(p, rg)
                assert (z * z).is_associated(rg.element(p))
                assert z.is_associated(z.conjugate())
                assert brute[p] == {z}, p

    def test_split_pair(self, rg):
        brute = brute_of_prime_norm(rg.d)
        for p in PRIMES_BELOW_2000:
            if classify_rational_prime(p, rg) is not PrimeClass.SPLIT:
                continue
            z1, z2 = split_prime_pair(p, rg)
            assert z1 != z2 and not z1.is_associated(z2)
            assert z1.is_associated(z2.conjugate())
            assert (z1 * z2).is_associated(rg.element(p))
            assert z1 == prime_above(p, rg)
            assert brute[p] == {z1, z2}, p

    def test_split_prime_near_1e18(self, rg):
        p = 10**18 + 1
        while not (is_prime(p) and classify_rational_prime(p, rg) is PrimeClass.SPLIT):
            p += 2
        z1, z2 = split_prime_pair(p, rg)
        assert z1 == prime_above(p, rg)
        for z in (z1, z2):
            assert z.norm() == p
            assert z == z.canonical_associate()
        assert z1.is_associated(z2.conjugate())
        assert not z1.is_associated(z2)

    def test_split_pair_rejects_nonsplit(self):
        with pytest.raises(NotPrime):
            split_prime_pair(3, Ring(-1))

    def test_prime_above_rejects_composite(self):
        with pytest.raises(NotPrime):
            prime_above(6, Ring(-1))


class TestQuadraticPrimality:
    def test_examples(self):
        rg = Ring(-1)
        assert is_quadratic_prime(rg.element(1, 1))
        assert is_quadratic_prime(rg.element(3, 0))
        assert not is_quadratic_prime(rg.element(5, 0))  # splits
        assert not is_quadratic_prime(rg.element(9, 3))
        assert not is_quadratic_prime(rg.element(1, 0))
        assert not is_quadratic_prime(rg.zero())

    def test_norm_p_squared_nonprime(self):
        # Norm 9 without being an associate of the inert 3: (3, 0) * unit
        # is the only prime shape; a split product like (2+i)(2-i) = 5 has
        # prime norm 25 but is composite.
        rg = Ring(-1)
        assert not is_quadratic_prime(rg.element(0, 5))  # 5i ~ 5 splits

    def test_prime_square_norm(self, rg):
        # An element of norm r^2, r a rational prime, is prime exactly when r
        # is inert, and then it is an associate of r.
        seen = set()
        for z in norm_ball_brute(rg, 2000):
            n = z.norm()
            r = math.isqrt(n)
            if r * r != n or not is_prime(r):
                continue
            inert = classify_rational_prime(r, rg) is PrimeClass.INERT
            assert is_quadratic_prime(z) is inert, z
            if inert:
                assert z.is_associated(rg.element(r)), z
            seen.add(inert)
        assert seen == {True, False}

    def test_valuation(self):
        rg = Ring(-1)
        assert valuation(rg.element(1, 1), rg.element(30, 30)) == 3
        assert valuation(rg.element(3, 0), rg.element(30, 30)) == 1
        assert valuation(rg.element(2, 1), rg.element(30, 30)) == 1
        assert valuation(rg.element(1, 1), rg.element(9, 0)) == 0

    def test_valuation_guards(self):
        rg = Ring(-1)
        with pytest.raises(NotPrime):
            valuation(rg.element(5, 0), rg.element(30, 30))
        with pytest.raises(ZeroElement):
            valuation(rg.element(1, 1), rg.zero())


class TestFactor:
    def test_gauss_fixture(self):
        rg = Ring(-1)
        fac = factor(rg.element(9, 3))
        assert fac.unit == rg.element(0, -1)
        assert fac.factors == (
            (rg.element(1, 1), 1),
            (rg.element(1, 2), 1),
            (rg.element(3, 0), 1),
        )
        assert fac.value() == rg.element(9, 3)
        assert math.prod(pi.norm() ** e for pi, e in fac.factors) == 90

    def test_conjugate_fixture(self):
        rg = Ring(-1)
        fac = factor(rg.element(3, 9))
        assert fac.unit == rg.one()
        assert fac.factors == (
            (rg.element(1, 1), 1),
            (rg.element(2, 1), 1),
            (rg.element(3, 0), 1),
        )

    def test_two_in_split_ring(self):
        rg = Ring(-7)
        fac = factor(rg.element(2))
        assert fac.unit == rg.element(-1)
        assert fac.factors == ((rg.element(-1, 1), 1), (rg.element(0, 1), 1))

    def test_unit_factorization(self, rg):
        fac = factor(rg.one())
        assert fac.unit == rg.one() and fac.factors == ()
        for u in rg.units():
            fac = factor(u)
            assert fac.unit == u and fac.factors == ()

    def test_zero_rejected(self, rg):
        with pytest.raises(ZeroElement):
            factor(rg.zero())

    def test_reconstruction_exhaustive(self, rg):
        for z in sorted(norm_ball_brute(rg, 400), key=lambda w: w.sort_key()):
            fac = factor(z)
            assert fac.value() == z, z
            assert math.prod(pi.norm() ** e for pi, e in fac.factors) == z.norm()
            keys = [pi.sort_key() for pi, _ in fac.factors]
            assert keys == sorted(keys) and len(keys) == len(set(keys))
            for pi, e in fac.factors:
                assert e >= 1
                assert pi.in_fundamental_sector()
                assert is_quadratic_prime(pi)

    def test_to_json_schema(self):
        obj = factor(Ring(-2).element(2, 1)).to_json()
        assert set(obj) == {"unit", "factors"}
        assert all(set(f) == {"prime", "exp", "norm"} for f in obj["factors"])

    def test_large_norm_prime(self):
        # The last norm prime is far beyond the reach of a coordinate scan.
        rg = Ring(-1)
        z = rg.element(1000000000039, 1)
        fac = factor(z)
        assert [pi.norm() for pi, _ in fac.factors] == [2, 89, 337, 64969, 256592474325833]
        assert all(e == 1 for _, e in fac.factors)
        assert fac.value() == z

    def test_inert_prime_above_trial_bound(self):
        rg = Ring(-1)
        q = 10000019
        assert classify_rational_prime(q, rg) is PrimeClass.INERT
        fac = factor(rg.element(q))
        assert fac.factors == ((rg.element(q), 1),)
        assert fac.unit == rg.one()

    def test_split_prime_cube_above_trial_bound(self):
        rg = Ring(-1)
        p = next_prime(10**6 + 1)
        while classify_rational_prime(p, rg) is not PrimeClass.SPLIT:
            p = next_prime(p + 1)
        pi = prime_above(p, rg)
        assert factor_rational(p**3).factors == ((p, 3),)
        fac = factor(pi**3)
        assert fac.factors == ((pi, 3),)
        assert fac.value() == pi**3

    def test_split_exponent_recovery(self):
        # (2+i)^3 (2-i): norms alone cannot separate the conjugates.
        rg = Ring(-1)
        z = rg.element(2, 1) ** 3 * rg.element(2, -1)
        fac = factor(z)
        by_prime = {pi: e for pi, e in fac.factors}
        assert by_prime[rg.element(2, 1)] == 3
        assert by_prime[rg.element(1, 2)] == 1  # canonical associate of 2-i
