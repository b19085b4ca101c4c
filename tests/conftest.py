"""Shared fixtures: the nine rings, brute-force lattice boxes and the
hyperbola element count used as oracles, and deterministic element
generators."""

from __future__ import annotations

import itertools
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, settings

from quadperfect import ADMISSIBLE_D, QuadInt, Ring, factor, prime_above
from quadperfect.primes import _classify, _factor_element, factor_rational, is_prime

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("suite")

ALL_D = ADMISSIBLE_D
NORM2_D = (-1, -2, -7)


@pytest.fixture(params=ALL_D, ids=lambda d: f"d={d}")
def rg(request) -> Ring:
    return Ring(request.param)


def record_calls(monkeypatch, fn) -> list:
    """The first argument of every call to fn while the test runs, whichever
    quadperfect module the caller looked the name up in."""
    calls = []

    def counting(x, *rest):
        calls.append(x)
        return fn(x, *rest)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadperfect":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def factor_calls(monkeypatch) -> list[QuadInt]:
    """The element of every element factorization while the test runs.
    factor and a search's revalidation of a hit both run _factor_element."""
    return record_calls(monkeypatch, _factor_element)


@pytest.fixture
def factor_rational_calls(monkeypatch) -> list[int]:
    """The argument of every call to factor_rational while the test runs."""
    return record_calls(monkeypatch, factor_rational)


@pytest.fixture
def forced_odd_hit(monkeypatch) -> QuadInt:
    """z = 2 + w of norm 5 in d = -1, made the one hit of every search and
    taken as 2-powerfully 2-perfect by the verifiers' index check.  No
    odd-norm hit is known, so this is how a test reaches the checks an
    odd-norm search runs on its hits."""
    from quadperfect import search, theorems

    z = Ring(-1).element(2, 1)
    monkeypatch.setattr(search, "_find", lambda *args: [(z, factor(z))])
    monkeypatch.setattr(theorems, "_index2", lambda z, fac: 2)
    return z


@pytest.fixture
def past_divisor_cap() -> QuadInt:
    """The product of one prime above each of the first 21 primes
    p = 1 (mod 4) in d = -1: 2^21 divisor classes, past DIVISOR_COUNT_CAP."""
    ps = [p for p in range(5, 200, 4) if is_prime(p)]
    assert len(ps) == 21
    return math.prod([prime_above(p, Ring(-1)) for p in ps], start=Ring(-1).one())


def box_elements(rg: Ring, amax: int, bmax: int) -> list[QuadInt]:
    """Every nonzero element with |a| <= amax, |b| <= bmax."""
    out = []
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            if a or b:
                out.append(rg.element(a, b))
    return out


def norm_ball_elements(rg: Ring, bound: int) -> list[QuadInt]:
    """Every element with 1 <= N <= bound, from a raw coordinate box that
    provably covers the ball.

    Plain basis: N = a^2 + |d| b^2, so |a| <= sqrt(bound) and
    |b| <= sqrt(bound/|d|).  Half-integer basis: 4N = (2a+b)^2 + |d| b^2,
    so |b| <= sqrt(4*bound/|d|) and |2a+b| <= 2 sqrt(bound).
    """
    amax = math.isqrt(bound) + 1
    bmax = math.isqrt(4 * bound // -rg.d) + 1
    return [z for z in box_elements(rg, amax + bmax, bmax) if z.norm() <= bound]


def norm_ball_brute(rg: Ring, bound: int) -> set[QuadInt]:
    """Canonical representatives with 1 <= N <= bound."""
    return {z.canonical_associate() for z in norm_ball_elements(rg, bound)}


def element_count_hyperbola(rg: Ring, bound: int, odd_only: bool) -> int:
    """Oracle for the element count: the number of canonical elements of
    norm at most bound, odd norms only if odd_only.  Each is one ideal, and
    sum_{b | N} chi(b) ideals have norm N, so the count is the sum of chi(b)
    over a * b <= bound, with a and b odd if odd_only.  With u = isqrt(bound),
    A(x) the number of a <= x and X(x) = chi(1) + ... + chi(x), the hyperbola
    method gives it as sum_{k <= u} (chi(k) A(bound // k) + X(bound // k)) -
    A(u) X(u)."""
    step = 2 if odd_only else 1
    # chi = chi_D, times 1 on odd j if odd_only, on one period, from the
    # smallest prime factor p of each j; chi sums to 0 over the period.
    mod = -rg.D * step
    chi = [0, 1]
    for j in range(2, mod):
        p = next(p for p in range(2, j + 1) if j % p == 0)
        chi.append(0 if odd_only and p == 2 else _classify(p, rg) * chi[j // p])
    pre = list(itertools.accumulate(chi))
    u = math.isqrt(bound)
    # A(x) = ceil(x / step) counts the a <= x, odd if odd_only.
    total = 0
    for k in range(1, u + 1, step):
        v = bound // k
        total += chi[k % mod] * ((v + step - 1) // step) + pre[v % mod]
    return total - (u + step - 1) // step * pre[u % mod]


def canonical_by_units(z: QuadInt) -> QuadInt:
    """Oracle for canonical_associate: the first unit multiple of z that
    lands in the fundamental sector."""
    for u in z.ring.units():
        if (cand := u * z).in_fundamental_sector():
            return cand
    raise AssertionError(f"no associate of {z!r} lies in the sector")


def divisors_by_product(z: QuadInt) -> list[QuadInt]:
    """Oracle for divisors: one product of prime powers pi^j, 0 <= j <= e,
    per exponent vector, each taken to its canonical associate by
    canonical_by_units, sorted by (norm, a, b)."""
    fac = factor(z).factors
    out = []
    for exps in itertools.product(*[range(e + 1) for _, e in fac]):
        x = z.ring.one()
        for (pi, _), j in zip(fac, exps):
            x = x * pi**j
        out.append(canonical_by_units(x))
    out.sort(key=QuadInt.sort_key)
    return out


def random_elements(rg: Ring, count: int, coord: int, seed: int) -> list[QuadInt]:
    """Deterministic nonzero sample with coordinates in [-coord, coord]."""
    rnd = random.Random(seed * 1000003 - rg.d)
    out = []
    while len(out) < count:
        a = rnd.randint(-coord, coord)
        b = rnd.randint(-coord, coord)
        if a or b:
            out.append(rg.element(a, b))
    return out
