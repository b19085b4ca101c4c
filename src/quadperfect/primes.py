"""Rational prime classification and unique factorization in the nine rings.

The integer substrate is self-contained: Miller-Rabin with a witness set
that is deterministic below 3.317e24 (above it a witness still proves
compositeness, and a probable prime raises TooLarge), trial division up to
10^6, a perfect-power test and Brent's rho for anything the trial bound
misses.  On the quadratic side a rational prime is ramified, split or inert
according to whether d is zero, a nonzero square or a non-square mod p; a
prime above a split or ramified p comes from a square root of the
discriminant mod p (Tonelli-Shanks) and Cornacchia's algorithm, both
O(log p) steps.  An element factorization finds the exponent of one prime
of each split pair by repeated exact division and gives its conjugate the
rest of the norm's exponent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import MixedRings, NotPrime, TooLarge, ZeroElement
from .rings import QuadInt, Ring

_TRIAL_BOUND = 10**6

# Deterministic witness set for n < 3_317_044_064_679_887_385_961_981; the
# same primes serve as the trial divisors that come first.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for 0 <= n < 3.3e24.

    A witness proves n composite at any size; a probable prime at or above
    that limit raises TooLarge.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
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
    if n % 2 == 0:
        return 2
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


def _factor_into(n: int, counts: dict[int, int], k: int = 1) -> None:
    """Add the prime factorization of n^k to counts."""
    if n == 1:
        return
    if is_prime(n):
        counts[n] = counts.get(n, 0) + k
        return
    # Rho needs about sqrt(p) steps to split a power of a large prime p.
    for e in range(2, n.bit_length()):
        r = _iroot(n, e)
        if r**e == n:
            _factor_into(r, counts, k * e)
            return
    d = _brent_rho(n)
    _factor_into(d, counts, k)
    _factor_into(n // d, counts, k)


@dataclass(frozen=True)
class IntFactorization:
    """n = prod p^e with the primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.factors)

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def factor_rational(n: int) -> IntFactorization:
    """Complete prime factorization of a positive integer."""
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    orig = n
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p <= _TRIAL_BOUND and p * p <= n:
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) & 7
    if n > 1:
        if p * p > n:
            counts[n] = counts.get(n, 0) + 1
        else:
            _factor_into(n, counts)
    return IntFactorization(orig, tuple(sorted(counts.items())))


def int_valuation(p: int, n: int) -> int:
    """Largest e with p^e dividing n, for prime p and n != 0."""
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


def _classify(p: int, d: int) -> PrimeClass:
    if p == 2:
        # 2 = -sqrt(-2)^2 for d=-2 and -i(1+i)^2 for d=-1; it splits only in
        # d=-7 (where x^2+x+2 has a root mod 2) and stays prime elsewhere.
        if d in (-1, -2):
            return PrimeClass.RAMIFIED
        if d == -7:
            return PrimeClass.SPLIT
        return PrimeClass.INERT
    if (-d) % p == 0:
        return PrimeClass.RAMIFIED
    if pow(d % p, (p - 1) // 2, p) == 1:
        return PrimeClass.SPLIT
    return PrimeClass.INERT


def classify_rational_prime(p: int, rg: Ring) -> PrimeClass:
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not a rational prime")
    return _classify(p, rg.d)


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
    # 4 N(a + b*w) = (2a + T*b)^2 - D*b^2 with D = T + 4c < 0, so solve
    # u^2 - D v^2 = 4p by the 4p form of Cornacchia's algorithm (Cohen,
    # Alg. 1.5.3) and take b = v, a = (u - T*v)/2.
    T, D = rg.T, rg.T + 4 * rg.c
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


def _primes_above(p: int, d: int) -> tuple[QuadInt, ...]:
    rg = Ring(d)
    cls = _classify(p, d)
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
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not a rational prime")
    return _primes_above(p, rg.d)[0]


def split_prime_pair(p: int, rg: Ring) -> tuple[QuadInt, QuadInt]:
    """Both canonical primes above a split p."""
    if classify_rational_prime(p, rg) is not PrimeClass.SPLIT:
        raise NotPrime(f"{p} does not split in d={rg.d}")
    pair = _primes_above(p, rg.d)
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
    # Norm q^2 is prime only for the inert rational prime q itself (up to units).
    return _classify(r, z.ring.d) is PrimeClass.INERT and z.is_associated(
        z.ring.element(r)
    )


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


@dataclass(frozen=True)
class QuadFactorization:
    """z = unit * prod prime^exp with sector-canonical primes sorted by
    (norm, a, b)."""

    ring: Ring
    unit: QuadInt
    factors: tuple[tuple[QuadInt, int], ...]

    def value(self) -> QuadInt:
        out = self.unit
        for pi, e in self.factors:
            out = out * pi**e
        return out

    def norm(self) -> int:
        out = 1
        for pi, e in self.factors:
            out *= pi.norm() ** e
        return out

    def to_json(self) -> dict:
        return {
            "unit": self.unit.to_json(),
            "factors": [
                {"prime": pi.to_json(), "exp": e, "norm": pi.norm()}
                for pi, e in self.factors
            ],
        }


def factor(z: QuadInt) -> QuadFactorization:
    """Unique factorization of a nonzero element."""
    if z.is_zero():
        raise ZeroElement("cannot factor the zero element")
    rg = z.ring
    factors: list[tuple[QuadInt, int]] = []
    for p, e in factor_rational(z.norm()):
        cls = _classify(p, rg.d)
        if cls is PrimeClass.INERT:
            # Inert primes contribute squares to the norm.
            assert e % 2 == 0, (z, p, e)
            factors.append((rg.element(p), e // 2))
        elif cls is PrimeClass.RAMIFIED:
            factors.append((_primes_above(p, rg.d)[0], e))
        else:
            # The conjugate prime takes what pi leaves of p^e; were r wrong,
            # the unit check below would fail.
            pi, pibar = _primes_above(p, rg.d)
            r = _valuation_unchecked(pi, z)
            factors += [(x, k) for x, k in ((pi, r), (pibar, e - r)) if k]
    factors.sort(key=lambda fe: fe[0].sort_key())
    rest = rg.one()
    for pi, e in factors:
        rest = rest * pi**e
    unit = z.exact_divide(rest)
    assert unit is not None and unit.is_unit(), z
    return QuadFactorization(rg, unit, tuple(factors))
