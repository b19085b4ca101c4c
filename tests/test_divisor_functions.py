"""Divisor lists, the closed-form and naive norm-power sums, abundancy
indices and the classical integer sigma."""

from __future__ import annotations

import os
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
    OddExponent,
    PrimeClass,
    Ring,
    TooLarge,
    ZeroElement,
    abundancy_index,
    classify_rational_prime,
    delta,
    delta_naive,
    divisors,
    factor,
    is_powerfully_perfect,
    is_prime,
    sigma,
)
from quadperfect.divisor_functions import DIVISOR_COUNT_CAP, NAIVE_NORM_CAP, geo

from conftest import divisors_by_product, norm_ball_brute, random_elements


class TestDivisors:
    def test_worked_example(self):
        # 9+3i: eight divisor classes with norms 1, 2, 5, 9, 10, 18, 45, 90.
        divs = divisors(Ring(-1).element(9, 3))
        assert sorted(x.norm() for x in divs) == [1, 2, 5, 9, 10, 18, 45, 90]
        assert sum(x.norm() for x in divs) == 180

    def test_count_structure_order(self, rg):
        for z in list(norm_ball_brute(rg, 120)):
            divs = divisors(z)
            count = 1
            for _, e in factor(z).factors:
                count *= e + 1
            assert len(divs) == count
            assert len(set(divs)) == count
            assert divs[0] == rg.one()
            assert divs[-1] == z.canonical_associate()
            keys = [x.sort_key() for x in divs]
            assert keys == sorted(keys)
            for x in divs:
                assert x.in_fundamental_sector()
                assert z.exact_divide(x) is not None

    def test_matches_product_oracle(self, rg):
        # Associates have the same divisor list, so one element per class.
        for z in norm_ball_brute(rg, 2000):
            assert divisors(z) == divisors_by_product(z), z

    def test_prime_has_two_classes(self):
        assert len(divisors(Ring(-19).element(2))) == 2

    def test_count_cap(self, past_divisor_cap):
        # Refused from the exponents, before any of the 2^21 products.
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"more than {DIVISOR_COUNT_CAP} divisor"):
            divisors(past_divisor_cap)
        assert time.perf_counter() - start < 0.5


def prime_from(rg: Ring, a: int, b: int):
    """The first of a + b*w, a + 2b*w, (a+1) + b*w, ... whose norm is a
    rational prime, for b != 0.  (In d=-7 every norm with b odd is even,
    and with b = 0 every norm is a square.)"""
    while True:
        for z in (rg.element(a, b), rg.element(a, 2 * b)):
            if is_prime(z.norm()):
                return z
        a += 1


@st.composite
def known_factorizations(draw):
    """z = unit * prod pi^e for primes pi known by construction: one prime
    of norm 10^16 to 10^21 with exponent up to 3, at most one of norm 10^6
    to 10^10, a few small ones and at most one inert rational prime, so
    that N(z) runs from about 10^16 to past 10^60.  Returns z and
    {canonical pi: e}."""
    rg = Ring(draw(st.sampled_from(ADMISSIBLE_D)))
    coords = lambda lo, hi: (
        draw(st.integers(lo, hi)),
        draw(st.integers(1, hi)) * draw(st.sampled_from((1, -1))),
    )
    parts = [(prime_from(rg, *coords(10**8, 3 * 10**9)), draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        parts.append((prime_from(rg, *coords(10**3, 10**4)), 1))
    for _ in range(draw(st.integers(0, 3))):
        parts.append((prime_from(rg, *coords(-40, 40)), draw(st.integers(1, 3))))
    if draw(st.booleans()):
        q = draw(st.integers(2, 300))
        while not (is_prime(q) and classify_rational_prime(q, rg) is PrimeClass.INERT):
            q += 1
        parts.append((rg.element(q), 1))
    z = draw(st.sampled_from(rg.units()))
    expect: dict = {}
    for pi, e in parts:
        key = pi.canonical_associate()
        expect[key] = expect.get(key, 0) + e
        z = z * pi**e
    return z, expect


class TestDelta:
    def test_closed_form_fixture(self):
        z = Ring(-1).element(9, 3)
        assert delta(2, z) == 180
        assert delta(4, z) == sum(x.norm() ** 2 for x in divisors(z))
        assert delta(-2, z) == Fraction(180, 90)

    def test_matches_naive_small_norms(self, rg):
        for z in norm_ball_brute(rg, 300):
            assert delta(2, z) == delta_naive(2, z), z
            assert delta(4, z) == delta_naive(4, z), z
            assert delta(-2, z) == delta_naive(-2, z), z
            assert delta(-4, z) == delta_naive(-4, z), z

    def test_types(self):
        z = Ring(-2).element(1, 1)
        assert isinstance(delta(2, z), int)
        assert isinstance(delta(-2, z), Fraction)

    def test_unit_values(self, rg):
        for u in rg.units():
            assert delta(2, u) == 1
            assert abundancy_index(2, u) == 1

    def test_multiplicative_on_coprime(self, rg):
        # Pairs with coprime norms are coprime elements.
        elems = sorted(norm_ball_brute(rg, 200), key=lambda z: z.sort_key())
        import math

        pairs = 0
        for i in range(0, len(elems) - 1, 2):
            x, y = elems[i], elems[i + 1]
            if math.gcd(x.norm(), y.norm()) != 1:
                continue
            assert delta(2, x * y) == delta(2, x) * delta(2, y)
            pairs += 1
        assert pairs > 10

    def test_invariant_under_units_and_conjugation(self, rg):
        for z in random_elements(rg, 40, 30, seed=7):
            base = delta(2, z)
            for u in rg.units():
                assert delta(2, u * z) == base
            assert delta(2, z.conjugate()) == base

    def test_guards(self, rg):
        z = rg.element(2, 1)
        with pytest.raises(OddExponent):
            delta(3, z)
        with pytest.raises(ValueError):
            delta(0, z)
        with pytest.raises(ZeroElement):
            delta(2, rg.zero())
        with pytest.raises(ZeroElement):
            delta_naive(2, rg.zero())
        with pytest.raises(ZeroElement):
            abundancy_index(2, rg.zero())

    def test_large_norm_prime(self):
        # N(z) = 2 * 89 * 337 * 64969 * 256592474325833.
        z = Ring(-1).element(1000000000039, 1)
        expect1 = expect2 = 1
        for p in (2, 89, 337, 64969, 256592474325833):
            expect1 *= 1 + p
            expect2 *= 1 + p + p * p
        assert delta(2, z) == expect1
        # N(z*z) is beyond the deterministic witness range.
        assert delta(2, z * z) == expect2

    @settings(max_examples=20)
    @given(known_factorizations(), st.sampled_from((2, 4, -2)))
    def test_known_factorizations(self, case, n):
        z, expect = case
        fac = factor(z)
        assert fac.value() == z
        assert dict(fac.factors) == expect
        h = abs(n) // 2
        closed = 1
        for pi, e in expect.items():
            closed *= sum(pi.norm() ** (h * i) for i in range(e + 1))
        assert delta(n, z) == (closed if n > 0 else Fraction(closed, z.norm() ** h))

    def test_geo_matches_closed_form(self):
        for q in range(2, 50):
            for k in range(-1, 8):
                assert geo(q, k) == (q ** (k + 1) - 1) // (q - 1), (q, k)

    def test_huge_exponent_fresh_process(self):
        # delta(2 * 10^6, 2 + i) = 5^(10^6) + 1: geo builds the sum by
        # Horner's rule, with no division of a 4.6-million-bit power by q - 1.
        code = (
            "from quadperfect import Ring, delta\n"
            "print(delta(2 * 10**6, Ring(-1).element(2, 1)) % 1000)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            check=True, timeout=2,
        )
        assert int(out.stdout) == (pow(5, 10**6, 1000) + 1) % 1000

    def test_naive_cap(self):
        big = Ring(-1).element(1001, 1000)
        assert big.norm() > NAIVE_NORM_CAP
        with pytest.raises(TooLarge):
            delta_naive(2, big)
        assert delta(2, big) > 0  # closed form has no cap


class TestIndex:
    def test_perfect_fixtures(self):
        rg = Ring(-1)
        assert abundancy_index(2, rg.element(9, 3)) == 2
        assert abundancy_index(2, rg.element(3, 9)) == 2
        assert abundancy_index(2, rg.element(30, 30)) == 3
        assert abundancy_index(2, rg.element(84, 4788)) == 3
        assert abundancy_index(2, rg.element(1764, 4452)) == 3

    def test_predicate(self):
        rg = Ring(-1)
        assert is_powerfully_perfect(2, 2, rg.element(9, 3))
        assert is_powerfully_perfect(2, 3, rg.element(30, 30))
        assert not is_powerfully_perfect(2, 2, rg.element(30, 30))
        assert not is_powerfully_perfect(2, 2, rg.element(7, 2))

    def test_predicate_guards(self):
        z = Ring(-1).element(9, 3)
        with pytest.raises(ValueError):
            is_powerfully_perfect(2, 1, z)
        # A non-integer t is a type error, as at every other entry point.
        with pytest.raises(TypeError, match="t must be an integer"):
            is_powerfully_perfect(2, Fraction(5, 2), z)

    def test_duality(self, rg):
        for z in random_elements(rg, 30, 25, seed=11):
            assert abundancy_index(2, z) == delta(-2, z)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            abundancy_index(-2, Ring(-1).element(1, 1))


class TestSigma:
    def test_classic_values(self):
        assert sigma(1, 6) == 12
        assert sigma(1, 28) == 56
        assert sigma(1, 8128) == 16256
        assert sigma(2, 10) == 1 + 4 + 25 + 100
        assert sigma(-1, 6) == 2
        assert sigma(-1, 28) == 2

    def test_matches_brute_force(self):
        for n in range(1, 200):
            divs = [c for c in range(1, n + 1) if n % c == 0]
            assert sigma(1, n) == sum(divs)
            assert sigma(2, n) == sum(c * c for c in divs)
            assert sigma(-1, n) == sum(Fraction(1, c) for c in divs)
            for k in (2, 3):
                assert sigma(-k, n) == sum(Fraction(1, c**k) for c in divs)

    def test_guards(self):
        with pytest.raises(ValueError):
            sigma(0, 6)
        with pytest.raises(ValueError):
            sigma(1, 0)
