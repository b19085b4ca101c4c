"""Integer substrate, rational prime classification, primes above p and
unique factorization of ring elements."""

from __future__ import annotations

import functools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadperfect import (
    ADMISSIBLE_D,
    NotPrime,
    PrimeClass,
    QuadInt,
    Ring,
    TooLarge,
    ZeroElement,
    abundancy_index,
    classify_rational_prime,
    delta,
    delta_naive,
    factor,
    factor_rational,
    is_prime,
    is_quadratic_prime,
    prime_above,
    split_prime_pair,
    valuation,
)
from quadperfect import primes
from quadperfect.primes import (
    IntFactorization,
    _block,
    _classify,
    _factor_element,
    _norm_primes,
    _prime,
    _primes_above,
    _sqrt_mod,
    _valuation_unchecked,
    int_valuation,
)

from conftest import NORM2_D, norm_ball_brute
from quadperfect.divisor_functions import NAIVE_NORM_CAP, geo


def sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return flags


PRIMES_BELOW_2000 = [p for p, prime in enumerate(sieve(1999)) if prime]
PRIMES_7_TO_2_16 = [p for p, prime in enumerate(sieve(65535)) if prime and p >= 7]
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

    # psi_k of OEIS A014233: the least odd composite that passes
    # Miller-Rabin to each of the first k primes.
    PSI = (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
    )

    def test_is_prime_rejects_strong_pseudoprimes(self):
        for psi in self.PSI[:12]:
            assert not is_prime(psi), psi
        # psi_13 passes all thirteen witnesses and sits at the limit.
        with pytest.raises(TooLarge):
            is_prime(self.PSI[12])

    def test_factor_rational_splits_psi_12(self):
        p, q = 399165290221, 798330580441
        assert p * q == self.PSI[11]
        assert factor_rational(p * q).factors == ((p, 1), (q, 1))


class TestSmallPrimeBlocks:
    """factor_rational where the blocks of 64 primes below 2^16 meet each
    other and the wheel from 65537."""

    BLOCKS = [PRIMES_7_TO_2_16[i : i + 64] for i in range(0, len(PRIMES_7_TO_2_16), 64)]

    @staticmethod
    def check(counts: dict[int, int]) -> None:
        n = math.prod(p**e for p, e in counts.items())
        assert factor_rational(n).factors == tuple(sorted(counts.items())), n

    def test_table(self):
        blocks = [_block(j) for j in range(len(self.BLOCKS))]
        assert [list(b) for _, b in blocks] == self.BLOCKS
        assert all(prod == math.prod(b) for prod, b in blocks)
        assert PRIMES_7_TO_2_16[-1] == 65521 and len(self.BLOCKS[-1]) < 64

    def test_first_and_last_of_a_block(self):
        # Blocks 4 and 5 meet at the twin primes 2141 and 2143.
        assert self.BLOCKS[4][-1] + 2 == self.BLOCKS[5][0]
        for j in (0, 1, 2, 4, 50, len(self.BLOCKS) - 2, len(self.BLOCKS) - 1):
            first, last = self.BLOCKS[j][0], self.BLOCKS[j][-1]
            self.check({first: 1, last: 1})
            self.check({first: 2, last: 3})
            self.check({2: 1, 5: 2, first: 1, last: 1})
            # Across a block edge, and from the first block to this one.  The
            # square of the next block's first prime is no prime, however
            # close that prime lies to this block's last.
            if j + 1 < len(self.BLOCKS):
                self.check({last: 1, self.BLOCKS[j + 1][0]: 1})
                self.check({last: 1, self.BLOCKS[j + 1][0]: 2})
            self.check({7: 1, last: 2})

    def test_wheel_edge(self):
        self.check({65521: 1, 65537: 1})
        self.check({65537: 2})
        self.check({65519: 1, 65521: 1, 65537: 1, 65539: 1})
        self.check({3: 1, 65521: 2, 65537: 2})

    def test_smooth_times_prime_power_above_2_16(self):
        for big in (65537, 65539, 1000003):
            for e in (1, 2, 3, 5):
                self.check({2: 3, 3: 1, 7: 2, 331: 1, 337: 1, 65521: 1, big: e})

    def test_many_primes_of_one_block(self):
        for j in (0, 7, len(self.BLOCKS) - 1):
            block = self.BLOCKS[j]
            self.check(dict.fromkeys(block, 1))
            self.check({p: 1 + i % 3 for i, p in enumerate(block[::3])})
            self.check({**dict.fromkeys(block[:5], 2), 1000003: 1, 1000033: 1})

    def test_one(self):
        assert factor_rational(1).factors == ()

    def test_order_does_not_matter(self, monkeypatch):
        # The table grows as far as a walk reaches, so its state before a
        # call must not change the result.
        ns = [
            1, 7 * 331, 337 * 65521, 65537**2, 1000003 * 1000033,
            2**5 * 311 * 313 * 317, 65521 * 65537, 10**12 + 39, 7**41 * 65521**3,
        ]
        runs = []
        for order in (ns, ns[::-1]):
            monkeypatch.setattr("quadperfect.primes._blocks", [])
            runs.append({n: factor_rational(n).factors for n in order})
        assert runs[0] == runs[1]
        for n, factors in runs[0].items():
            assert math.prod(p**e for p, e in factors) == n
            assert all(is_prime(p) for p, _ in factors)

    def test_small_factor_builds_at_most_one_block(self):
        # In a fresh interpreter: importing sieves nothing and builds no
        # block, the README's qp factor example (norm 2 * 3^2 * 5) builds
        # none, and 10+11i (norm 13 * 17) the first.
        code = (
            "import contextlib, io\n"
            "from quadperfect import cli, primes\n"
            "assert primes._blocks == [] and primes._primes == []\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['factor', '--d', '-1', '--elem', '9+3*i'])\n"
            "    cli.main(['factor', '--d', '-1', '--elem', '10+11*i'])\n"
            "print(len(primes._blocks))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert int(out.stdout) == 1

    def test_inert_square_skips_the_blocks(self):
        # An inert prime's norm p^2 with p > 2^16 goes to its root before
        # any block is built, in a fresh interpreter.
        code = (
            "from quadperfect import primes\n"
            "print(primes.factor_rational(10000019**2).factors, primes._blocks)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.split() == ["((10000019,", "2),)", "[]"]


class TestPrimeSieve:
    """_prime, the one segmented sieve behind the blocks, the perfect-power
    exponents, the walk and smallest_odd_prime_norms."""

    LIMIT = 70000

    def test_matches_is_prime_across_segment_edges(self, monkeypatch):
        # From an empty list: segments of 4096 numbers up to 32768, then of
        # lo // 8 numbers; the first dozen edges lie below LIMIT.
        monkeypatch.setattr(primes, "_primes", [])
        expect = [n for n in range(2, self.LIMIT) if is_prime(n)]
        edges = []
        for i in range(len(expect)):
            assert _prime(i) == expect[i], i
            if primes._primes[-1] not in edges:
                edges.append(primes._primes[-1])
        assert len(edges) >= 12
        assert any(b - a > 4096 for a, b in zip(edges, edges[1:]))
        assert primes._primes[: len(expect)] == expect

    def test_any_order_of_requests(self, monkeypatch):
        # A far request sieves every segment up to it in one call.
        monkeypatch.setattr(primes, "_primes", [])
        last = _prime(6541)
        assert last == 65521 and _prime(0) == 2 and _prime(3) == 7
        assert primes._primes == [n for n in range(2, primes._primes[-1] + 1) if is_prime(n)]

    def test_walk_or_factoring_first(self, monkeypatch):
        # The walk, the gcd blocks and the perfect-power test share the list,
        # so which of them grows it first changes no result.
        from quadperfect.search import _scan

        ns = [7 * 331, 337 * 65521, 65537**3, 1000003 * 1000033, 7**41 * 65521**3]
        runs = []
        for walk_first in (True, False):
            monkeypatch.setattr(primes, "_primes", [])
            monkeypatch.setattr(primes, "_blocks", [])
            if walk_first:
                found = sorted(_scan(Ring(-7), 2, 2, 10**12, False))
            facs = {n: factor_rational(n).factors for n in ns}
            if not walk_first:
                found = sorted(_scan(Ring(-7), 2, 2, 10**12, False))
            runs.append((found, facs, [b for _, b in primes._blocks]))
        assert runs[0] == runs[1]
        assert runs[0][0] == [28, 8128, 33550336, 137438691328]


class TestClassification:
    def test_against_residue_oracle(self, rg):
        # Independent oracle: for odd p, d mod p is zero, a nonzero square
        # or a non-square; for p=2 the discriminant residue mod 8 decides.
        # chi_D(p) is 1, 0 or -1 as p splits, ramifies or stays inert; then
        # 1 + chi primes of norm p lie above p, or p itself, of norm p^2.
        chi_of = {PrimeClass.SPLIT: 1, PrimeClass.RAMIFIED: 0, PrimeClass.INERT: -1}
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
            chi = _classify(p, rg)
            assert chi == chi_of[expect], (p, rg.d)
            above = _primes_above(p, rg)
            if chi >= 0:
                assert len(above) == 1 + chi, (p, rg.d)
            else:
                assert above[0].norm() == p * p, (p, rg.d)

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


def tonelli_shanks(a: int, p: int) -> int:
    """Oracle for _sqrt_mod: Tonelli-Shanks at every odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def test_sqrt_mod_matches_tonelli_shanks():
    # For p = 3 mod 4 Tonelli-Shanks has s = 1 and returns a^((p+1)/4) as
    # well, so the two agree exactly, not only up to sign.
    primes = [p for p, prime in enumerate(sieve(10**5)) if prime and p > 2]
    for d in ADMISSIBLE_D:
        D = Ring(d).D
        for p in primes:
            if D % p == 0 or pow(D % p, (p - 1) // 2, p) == 1:
                r = _sqrt_mod(D, p)
                assert r == tonelli_shanks(D, p) and (r * r - D) % p == 0, (d, p)


def ramified_prime(rg: Ring) -> int:
    """The one rational prime dividing D: 2 for d = -1, -2, else |d|."""
    return 2 if rg.D % 4 == 0 else -rg.d


def built_elements(rg: Ring, seed: int, count: int) -> list[tuple[QuadInt, dict]]:
    """Seeded z = unit * p^s * pi^r * pibar^(e - r) * q^k * rho^j, with pi and
    pibar the primes above one or two split p, q inert and rho ramified;
    each z comes with its prime exponents, by construction.  The list
    starts with the forced cases: s >= 1 with e = 0, where z = p^s * ... and
    the shares are equal; s >= 1 with e > 0, where p divides a and b; the
    split 2 of d = -7; the prime w of norm -c, whose residue is 0; and a
    split prime above 10^12."""
    rnd = random.Random(seed * 1000003 - rg.d)
    small = [p for p in PRIMES_BELOW_2000 if p < 200 and _classify(p, rg) > 0]
    inert = [q for q in PRIMES_BELOW_2000 if q < 50 and _classify(q, rg) < 0]
    big = next_prime(10**12)
    while _classify(big, rg) <= 0:
        big = next_prime(big + 1)
    # Each shape lists (p, s, r, e) for its split primes.
    shapes = [[(small[0], 1, 0, 0)], [(small[1], 1, 1, 2)], [(small[0], 2, 0, 3)]]
    if _classify(2, rg) > 0:
        shares = ((0, 0, 3), (1, 1, 1), (1, 0, 0), (2, 2, 3))
        shapes += [[(2, s, r, e)] for s, r, e in shares]
    if _classify(-rg.c, rg) > 0:
        shapes += [[(-rg.c, 0, 2, 2)], [(-rg.c, 1, 0, 1), (small[-1], 0, 1, 1)]]
    shapes += [[(big, 0, 1, 1)], [(big, 1, 0, 2), (small[0], 0, 1, 2)]]
    while len(shapes) < count:
        shape = []
        for p in rnd.sample(small, rnd.randint(1, 2)):
            e = rnd.randint(0, 3)
            shape.append((p, rnd.randint(0, 2), rnd.randint(0, e), e))
        shapes.append(shape)
    out = []
    ram = prime_above(ramified_prime(rg), rg)
    for shape in shapes:
        z = rnd.choice(rg.units())
        exps: dict[QuadInt, int] = {}
        for p, s, r, e in shape:
            pi, pibar = split_prime_pair(p, rg)
            z = z * rg.element(p) ** s * pi**r * pibar ** (e - r)
            exps[pi], exps[pibar] = s + r, s + e - r
        q, k, j = rg.element(rnd.choice(inert)), rnd.randint(0, 1), rnd.randint(0, 2)
        z = z * q**k * ram**j
        exps[q], exps[ram] = k, j
        out.append((z, {pi: e for pi, e in exps.items() if e}))
    return out


class TestContentAndResidue:
    """factor takes each split share from the content and the residue of z,
    and delta reads them off N(z) and the content alone."""

    def test_factor_matches_construction(self, rg, monkeypatch):
        roots = []
        monkeypatch.setattr(
            primes, "_sqrt_mod", lambda a, p: roots.append(p) or _sqrt_mod(a, p)
        )
        for z, exps in built_elements(rg, 7, 40):
            roots.clear()
            fac = factor(z)
            want = sorted(exps.items(), key=lambda fe: fe[0].sort_key())
            assert fac.factors == tuple(want), z
            assert fac.value() == z and fac.unit.is_unit()
            # The residue's root replaces the square root of D, except where
            # the two shares are equal.
            c = math.gcd(z.a, z.b)
            equal = {
                p for p, e in factor_rational(z.norm())
                if p > 2 and _classify(p, rg) > 0 and e == 2 * int_valuation(p, c)
            }
            assert {p for p in roots if rg.D % p} == equal, z
            again = _factor_element(z, _norm_primes(z.norm(), rg))
            assert (again.unit, again.factors) == (fac.unit, fac.factors)
            for pi, e in fac.factors:
                assert _valuation_unchecked(pi, z) == e, (z, pi)

    def test_delta_matches_construction(self, rg):
        for z, exps in built_elements(rg, 11, 40):
            want = {
                h: math.prod(geo(pi.norm() ** h, e) for pi, e in exps.items())
                for h in (1, 2)
            }
            assert delta(2, z) == want[1] and delta(4, z) == want[2], z
            assert delta(-2, z) == Fraction(want[1], z.norm()), z
            assert abundancy_index(2, z) == delta(-2, z), z
            if z.norm() <= NAIVE_NORM_CAP:
                for n in (2, -2, 4):
                    assert delta(n, z) == delta_naive(n, z), (n, z)

    def test_delta_builds_no_prime_above(self, rg, monkeypatch):
        def refuse(*args):
            raise AssertionError("delta factored the element")

        built = built_elements(rg, 13, 10)
        monkeypatch.setattr(primes, "_factor_element", refuse)
        monkeypatch.setattr(primes, "_primes_above", refuse)
        for z, _ in built:
            delta(2, z)
            abundancy_index(4, z)
