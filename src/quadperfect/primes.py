"""Rational prime classification and unique factorization in the nine rings.

The integer substrate is self-contained: Miller-Rabin with a witness set
that is deterministic below 3.317e24 (above it a witness still proves
compositeness, and a probable prime raises TooLarge), and factoring in one
loop (Cohen, GTM 138, ch. 8).  After 2, 3 and 5 are divided out, each pass
over the cofactor n records n once it is prime, replaces a composite
perfect power by its root, and otherwise divides out the next prime the
2-3-5 wheel meets up to 10^6, or past 10^6 splits n by Brent's rho.  So
once the wheel has passed every prime factor but the largest, the rest
costs O(log n) modular steps.

On the quadratic side a rational prime is ramified, split or inert
according to whether the discriminant D is zero, a nonzero square or a
non-square mod p (for p = 2: D even, D = 1 mod 8 or D = 5 mod 8); a prime
above a split or ramified p comes from a square root of the discriminant
mod p (Tonelli-Shanks) and Cornacchia's algorithm, both O(log p) steps.
An element factorization finds the exponent of one prime of each split
pair by repeated exact division and gives its conjugate the rest of the
norm's exponent.
"""

from __future__ import annotations

import enum
import math
from itertools import chain, count

from .errors import MixedRings, NotPrime, TooLarge, ZeroElement, require_ints
from .records import Record
from .rings import QuadInt, Ring

_TRIAL_BOUND = 10**6

# Deterministic witness set for n < 3_317_044_064_679_887_385_961_981; the
# same primes serve as is_prime's trial divisors and as the first exponents
# of the perfect-power test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for 0 <= n < 3.3e24.

    A witness proves n composite at any size; a probable prime at or above
    that limit raises TooLarge.
    """
    require_ints(n=n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # No prime up to 37 divides n, so n has no factor below its root.
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise TooLarge(
            f"{n} is a probable prime; the deterministic witness set only "
            f"certifies n < {_MR_LIMIT}"
        )
    return True


def _iroot(x: int, k: int) -> int:
    """The integer k-th root of x >= 1, rounded down."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def _perfect_power(n: int, lo: int) -> tuple[int, int] | None:
    """(r, e) with r^e = n for the smallest prime e that gives one, or None.

    Every prime factor of n > 1 is at least lo >= 2, so n = r^e needs
    lo^e <= n; a composite e = e1*e2 shows up as the prime e1 with root r^e2.
    """
    for e in chain(_MR_BASES, filter(is_prime, count(41, 2))):
        if lo**e > n:
            return None
        r = _iroot(n, e)
        if r**e == n:
            return r, e


_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def _factor_into(n: int, counts: dict[int, int], p: int, i: int, k: int = 1) -> None:
    """Add the prime factorization of n^k to counts.

    No prime below p divides n, and p is the value at place i of the 2-3-5
    wheel 7, 11, 13, 17, ...  Each pass records n once it is below p^2 or
    prime, takes the root of a perfect power, or else divides out the next
    prime the wheel meets up to 10^6, or past 10^6 splits n by rho.  So each
    prime the wheel divides out costs one primality and one perfect-power
    test, and the last cofactor one more.
    """
    while n > 1:
        if n < p * p or is_prime(n):
            counts[n] = counts.get(n, 0) + k
            return
        # Rho needs about sqrt(q) steps to split a power of a large prime q.
        root = _perfect_power(n, p)
        if root is not None:
            n, k = root[0], k * root[1]
            continue
        # n is composite and not a perfect power, so it has two distinct
        # prime factors and the smaller is at most sqrt(n): the wheel stops.
        while p <= _TRIAL_BOUND and n % p:
            p += _WHEEL[i]
            i = (i + 1) & 7
        if p > _TRIAL_BOUND:
            d = _brent_rho(n)
            _factor_into(d, counts, p, i, k)
            n //= d
            continue
        # Every prime below p is gone from n, so p is prime.
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        counts[p] = counts.get(p, 0) + k * e


class IntFactorization(Record):
    """n = prod p^e with the primes strictly increasing; fields n and
    factors, a tuple of (p, e) pairs."""

    __slots__ = ("n", "factors")

    def __iter__(self):
        return iter(self.factors)


def factor_rational(n: int) -> IntFactorization:
    """Complete prime factorization of a positive integer.

    2, 3 and 5 are divided out first; the cofactor goes to one loop that
    stops once it is a prime, takes the root of a composite perfect power
    before trial division goes on, divides by the 2-3-5 wheel up to 10^6 and
    splits what is left by Brent's rho.
    """
    require_ints(n=n)
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    counts: dict[int, int] = {}
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    _factor_into(m, counts, 7, 0)
    return IntFactorization(n, tuple(sorted(counts.items())))


def int_valuation(p: int, n: int) -> int:
    """Largest e with p^e dividing n, for prime p and n != 0."""
    require_ints(p=p, n=n)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n == 0:
        raise ZeroElement("the zero integer has infinite valuation")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


class PrimeClass(enum.Enum):
    RAMIFIED = "ramified"
    SPLIT = "split"
    INERT = "inert"


def _classify(p: int, rg: Ring) -> PrimeClass:
    D = rg.D
    if D % p == 0:
        return PrimeClass.RAMIFIED
    if p == 2:
        # D = 1 + 4c is odd here, and 2 splits when w^2 = w + c has a root
        # mod 2, that is when c is even.
        square = D % 8 == 1
    else:
        square = pow(D % p, (p - 1) // 2, p) == 1
    return PrimeClass.SPLIT if square else PrimeClass.INERT


def classify_rational_prime(p: int, rg: Ring) -> PrimeClass:
    require_ints(p=p)
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not a rational prime")
    return _classify(p, rg)


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo an odd prime p
    (Tonelli-Shanks)."""
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


def _norm_equation_solutions(p: int, rg: Ring) -> list[QuadInt]:
    """An x with N(x) = p and its conjugate, for a split or ramified p."""
    # 4 N(a + b*w) = (2a + T*b)^2 - D*b^2 with D < 0, so solve
    # u^2 - D v^2 = 4p by the 4p form of Cornacchia's algorithm (Cohen,
    # Alg. 1.5.3) and take b = v, a = (u - T*v)/2.
    T, D = rg.T, rg.D
    if p == 2:
        # 8 = u^2 - D v^2 forces v = 1, so 8 + D must be a square.
        u, v = math.isqrt(8 + D), 1
    else:
        u = _sqrt_mod(D, p)
        if (u - D) % 2:
            u = p - u
        a, lim = 2 * p, math.isqrt(4 * p)
        while u > lim:
            a, u = u, a % u
        v = math.isqrt((4 * p - u * u) // -D)
    x = rg.element((u - T * v) // 2, v)
    assert x.norm() == p, (p, rg.d)
    return [x, x.conjugate()]


def _primes_above(p: int, rg: Ring) -> tuple[QuadInt, ...]:
    cls = _classify(p, rg)
    if cls is PrimeClass.INERT:
        return (rg.element(p),)
    reps = {z.canonical_associate() for z in _norm_equation_solutions(p, rg)}
    # Smallest norm, then largest a, then smallest b.
    ordered = sorted(reps, key=lambda z: (z.norm(), -z.a, z.b))
    if cls is PrimeClass.RAMIFIED:
        assert len(ordered) == 1
    else:
        assert len(ordered) == 2
    return tuple(ordered)


def prime_above(p: int, rg: Ring) -> QuadInt:
    """A canonical prime above p: p itself when inert, a norm-p element
    otherwise (the distinguished one of the conjugate pair when p splits)."""
    require_ints(p=p)
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not a rational prime")
    return _primes_above(p, rg)[0]


def split_prime_pair(p: int, rg: Ring) -> tuple[QuadInt, QuadInt]:
    """Both canonical primes above a split p."""
    if classify_rational_prime(p, rg) is not PrimeClass.SPLIT:
        raise NotPrime(f"{p} does not split in d={rg.d}")
    pair = _primes_above(p, rg)
    return pair[0], pair[1]


def is_quadratic_prime(z: QuadInt) -> bool:
    """True when z is prime in its ring."""
    if z.is_zero() or z.is_unit():
        return False
    n = z.norm()
    if is_prime(n):
        return True
    r = math.isqrt(n)
    if r * r != n or not is_prime(r):
        return False
    # Norm r^2 is prime only for an inert r, and then r itself is the only
    # prime above r and has norm r^2, so z is an associate of r.
    return _classify(r, z.ring) is PrimeClass.INERT


def valuation(pi: QuadInt, z: QuadInt) -> int:
    """Largest e with pi^e dividing z, for prime pi and z != 0."""
    if not is_quadratic_prime(pi):
        raise NotPrime(f"{pi} is not prime in d={pi.ring.d}")
    if z.is_zero():
        raise ZeroElement("the zero element has infinite valuation")
    if z.ring is not pi.ring:
        raise MixedRings(f"cannot mix d={pi.ring.d} and d={z.ring.d}")
    return _valuation_unchecked(pi, z)


def _valuation_unchecked(pi: QuadInt, z: QuadInt) -> int:
    e = 0
    while True:
        q = z.exact_divide(pi)
        if q is None:
            return e
        z = q
        e += 1


class QuadFactorization(Record):
    """z = unit * prod prime^exp with sector-canonical primes sorted by
    (norm, a, b); fields ring, unit and factors, a tuple of (prime, exp)
    pairs."""

    __slots__ = ("ring", "unit", "factors")

    def value(self) -> QuadInt:
        out = self.unit
        for pi, e in self.factors:
            out = out * pi**e
        return out

    def to_json(self) -> dict:
        return {
            "unit": self.unit.to_json(),
            "factors": [
                {"prime": pi.to_json(), "exp": e, "norm": pi.norm()}
                for pi, e in self.factors
            ],
        }


def _norm_primes(n: int, rg: Ring) -> list[tuple[int, int, tuple[QuadInt, ...]]]:
    """(p, e, _primes_above(p)) for each p^e exactly dividing n >= 1."""
    return [(p, e, _primes_above(p, rg)) for p, e in factor_rational(n)]


def _factor_element(z: QuadInt, primes) -> QuadFactorization:
    """The factorization of a nonzero z, given _norm_primes(N(z), z.ring)."""
    rg = z.ring
    factors: list[tuple[QuadInt, int]] = []
    for p, e, above in primes:
        if len(above) == 2:
            # The conjugate prime takes what pi leaves of p^e; were r wrong,
            # the unit check below would fail.
            pi, pibar = above
            r = _valuation_unchecked(pi, z)
            factors += [(x, k) for x, k in ((pi, r), (pibar, e - r)) if k]
        else:
            # A ramified prime has norm p; an inert one has norm p^2, so it
            # contributes a square to N(z).
            k, odd = divmod(e, 1 if above[0].norm() == p else 2)
            assert not odd, (z, p, e)
            factors.append((above[0], k))
    factors.sort(key=lambda fe: fe[0].sort_key())
    rest = rg.one()
    for pi, e in factors:
        rest = rest * pi**e
    unit = z.exact_divide(rest)
    assert unit is not None and unit.is_unit(), z
    return QuadFactorization(rg, unit, tuple(factors))


def factor(z: QuadInt) -> QuadFactorization:
    """Unique factorization of a nonzero element."""
    if z.is_zero():
        raise ZeroElement("cannot factor the zero element")
    return _factor_element(z, _norm_primes(z.norm(), z.ring))
