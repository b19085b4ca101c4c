"""Norm-power divisor sums, abundancy indices and the perfection predicate.

delta(n, z) sums |x|^n over one divisor x from each associate class of z;
for even n that is sum of N(x)^(n/2), an integer when n > 0 and an exact
rational when n < 0.  The abundancy index is index(n, z) = delta(n, z) /
N(z)^(n/2), and z is n-powerfully t-perfect when the index equals t.  The
closed form multiplies geometric sums over the prime factorization, and
delta(-n, z) = index(n, z) because x -> z/x permutes the divisor classes;
delta_naive re-sums over an explicit divisor list and exists to keep the
closed form honest.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OddExponent, TooLarge, ZeroElement, require_ints
from .primes import QuadFactorization, factor, factor_rational
from .rings import QuadInt

NAIVE_NORM_CAP = 10**6
DIVISOR_COUNT_CAP = 1 << 20


def geo(q: int, k: int) -> int:
    """1 + q + ... + q^k (0 when k = -1), for q >= 2."""
    return (q ** (k + 1) - 1) // (q - 1)


def _check_even(n: int) -> int:
    require_ints(n=n)
    if n % 2:
        raise OddExponent(f"exponent must be even, got {n}")
    if n == 0:
        raise ValueError("exponent must be nonzero")
    return n // 2


def _divisor_products(fac: QuadFactorization) -> list[QuadInt]:
    """One divisor per associate class of fac's element, each a product of
    its prime powers, in no particular order.

    The list grows prime by prime: for pi^e it gains the earlier divisors
    times pi, pi^2, ..., pi^e, so each divisor costs one product."""
    count = 1
    for _, e in fac.factors:
        count *= e + 1
        if count > DIVISOR_COUNT_CAP:
            raise TooLarge(f"more than {DIVISOR_COUNT_CAP} divisor classes")
    out = [fac.ring.one()]
    for pi, e in fac.factors:
        layer = out
        out = list(out)
        for _ in range(e):
            layer = [x * pi for x in layer]
            out += layer
    return out


def divisors(z: QuadInt) -> list[QuadInt]:
    """One sector-canonical divisor per associate class, sorted by
    (norm, a, b)."""
    out = [x.canonical_associate() for x in _divisor_products(factor(z))]
    out.sort(key=QuadInt.sort_key)
    return out


def _geo_product(h: int, fac: QuadFactorization) -> int:
    """delta(2h, z) for h >= 1, from the factorization fac of z."""
    return math.prod([geo(pi.norm() ** h, e) for pi, e in fac.factors])


def delta(n: int, z: QuadInt) -> int | Fraction:
    """Sum of N(x)^(n/2) over the divisor classes x of z, closed form."""
    h = _check_even(n)
    if z.is_zero():
        raise ZeroElement("delta is undefined at zero")
    total = _geo_product(abs(h), factor(z))
    return total if h > 0 else Fraction(total, z.norm() ** -h)


def delta_naive(n: int, z: QuadInt) -> int | Fraction:
    """Same sum over an explicit divisor list; the oracle for delta, capped
    at norm NAIVE_NORM_CAP."""
    h = _check_even(n)
    if z.is_zero():
        raise ZeroElement("delta is undefined at zero")
    if z.norm() > NAIVE_NORM_CAP:
        raise TooLarge(f"naive divisor sum capped at norm {NAIVE_NORM_CAP}")
    # Units do not change norms, so the raw products serve as the classes.
    xs = _divisor_products(factor(z))
    if h > 0:
        return sum(x.norm() ** h for x in xs)
    return sum(Fraction(1, x.norm() ** -h) for x in xs)


def abundancy_index(n: int, z: QuadInt) -> Fraction:
    """delta(n, z) / N(z)^(n/2) for positive even n, exact."""
    h = _check_even(n)
    if h < 0:
        raise ValueError(f"index exponent must be positive, got {n}")
    if z.is_zero():
        raise ZeroElement("the index is undefined at zero")
    return Fraction(delta(n, z), z.norm() ** h)


def is_powerfully_perfect(n: int, t: int, z: QuadInt) -> bool:
    """True when index(n, z) == t, for integer t >= 2."""
    require_ints(t=t)
    if t < 2:
        raise ValueError(f"t must be an integer >= 2, got {t!r}")
    return abundancy_index(n, z) == t


def sigma(k: int, n: int) -> int | Fraction:
    """Classical divisor power sum over positive integers: sum of c^k over
    the positive divisors c of n."""
    require_ints(k=k, n=n)
    if k == 0:
        raise ValueError("exponent must be nonzero")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = math.prod([geo(p ** abs(k), e) for p, e in factor_rational(n)])
    return total if k > 0 else Fraction(total, n**-k)
