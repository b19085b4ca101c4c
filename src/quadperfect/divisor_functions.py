"""Norm-power divisor sums, abundancy indices and the perfection predicate.

delta(n, z) sums |x|^n over one divisor x from each associate class of z;
for even n that is sum of N(x)^(n/2), an integer when n > 0 and an exact
rational when n < 0.  The abundancy index is index(n, z) = delta(n, z) /
N(z)^(n/2), and z is n-powerfully t-perfect when the index equals t.  The
closed form multiplies geometric sums over the prime factorization, and
delta(-n, z) = index(n, z) because x -> z/x permutes the divisor classes;
delta_naive re-sums over an explicit divisor list and exists to keep the
closed form honest.

The closed form needs no factorization of z, only of N(z): by the content
lemma, stated and proved at primes._shares, the primes above a split p^e
share e as (s, e - s) in some order, with s = v_p(gcd(a, b)) for
z = a + b*w.  A split p's factor geo(q, r) * geo(q, e - r) is symmetric in
the share, so s is enough.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OddExponent, TooLarge, ZeroElement, require_ints
from .primes import QuadFactorization, _shares, factor, factor_rational
from .rings import QuadInt

NAIVE_NORM_CAP = 10**6
DIVISOR_COUNT_CAP = 1 << 20


def geo(q: int, k: int) -> int:
    """1 + q + ... + q^k (0 when k = -1), for q >= 2, by Horner's rule: k
    multiplications by q and no division, as dividing q^(k+1) - 1 by q - 1
    takes time quadratic in the digits of a huge q."""
    s = 0
    for _ in range(k + 1):
        s = s * q + 1
    return s


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
    """Sum of N(x)^(n/2) over the divisor classes x of z, closed form.

    The product runs over the primes p of N(z), with q^e exactly dividing
    N(z) for q the norm of a prime above p: geo(q^|n/2|, s) *
    geo(q^|n/2|, e - s), where s = v_p(gcd(a, b)) for a split p, by the
    content lemma of primes._shares, and s = 0 otherwise.  So delta factors
    N(z) once and never z itself.
    """
    h = _check_even(n)
    if z.is_zero():
        raise ZeroElement("delta is undefined at zero")
    k = abs(h)
    total = math.prod(
        [geo(q**k, s) * geo(q**k, e - s) for _, _, q, e, s, _ in _shares(z)]
    )
    return total if h > 0 else Fraction(total, z.norm() ** k)


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
