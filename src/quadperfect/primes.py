"""Rational prime classification and unique factorization in the nine rings.

The integer substrate is self-contained: Miller-Rabin with tiered
witnesses, the first k primes for n below psi_k (OEIS A014233), which is
deterministic below psi_13 = 3.317e24 (above it a witness still proves
compositeness, and a probable prime raises TooLarge), and factoring in one
loop (Cohen, GTM 138, ch. 8).  After 2, 3 and 5 are divided out, each pass
over the cofactor n records n once it is prime, and replaces a perfect
square by its root.  Otherwise it divides out the primes below 2^16 that n
shares with the next block of 64 primes, found by one gcd with the block's
product (Bernstein, "How to find smooth parts of integers", 2004); past
the blocks it replaces a composite perfect power by its root, and
otherwise divides out the next prime the 2-3-5 wheel meets from 65537 up
to 10^6, or past 10^6 splits n by Brent's rho.  So once the blocks or the
wheel have passed every prime factor but the largest, the rest costs
O(log n) modular steps.

The library enumerates primes in one place: _prime(i), the i-th prime,
read from one segmented sieve of Eratosthenes that extends as far as a
caller reaches.  The gcd blocks, the perfect-power exponents, the search's
walk over the primes in order and theorems.smallest_odd_prime_norms all
read it.

On the quadratic side every prime fact is the Kronecker symbol chi_D(p):
0, 1 or -1 as the discriminant D is zero, a nonzero square or a
non-square mod p (for p = 2: D even, D = 1 mod 8 or D = 5 mod 8), that is,
as p ramifies, splits or stays inert.  1 + chi_D(p) primes of norm p lie
above p, and when chi_D(p) = -1 p itself is the one prime above it, of
norm p^2.  A prime of norm p comes from a square root of the discriminant
mod p and Cornacchia's algorithm, both O(log p) steps; the root is one
power when p = 3 mod 4, and Tonelli-Shanks otherwise.  An element
factorization reads the shares of each split p^e off z = a + b*w itself:
the smaller share is s = v_p(gcd(a, b)), and when e > 2s the prime above
p that divides z / p^s takes e - s, the one that maps w to the residue
-a'/b' mod p of z / p^s = a' + b'*w.  That residue also gives the square
root of D, so only a split prime with equal shares needs one found
afresh.  One exact division, for the unit, checks the shares.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from itertools import compress, count

from .errors import MixedRings, NotPrime, TooLarge, ZeroElement, require_ints
from .records import Record
from .rings import QuadInt, Ring

_TRIAL_BOUND = 10**6

# psi_k of OEIS A014233: Miller-Rabin to the first k primes as witnesses is
# deterministic for n < psi_k, so is_prime takes as many as n needs, and
# the last psi bounds the deterministic range.  The same primes serve as
# is_prime's trial divisors.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
_MR_LIMIT = _MR_PSI[-1]


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
    if n < 43 * 43:
        # No prime up to 41 divides n, so n has no factor below its root.
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
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
    for e in map(_prime, count()):
        if lo**e > n:
            return None
        r = _iroot(n, e)
        if r**e == n:
            return r, e


# The primes from 2 in increasing order, sieved so far; _prime extends the
# list only as far as a caller reaches, and importing sieves nothing.  Every
# list ever bound to _primes holds the primes from 2 up to some point, with
# no repeat: an extension is built from one snapshot of the list and
# published by rebinding the name, never by appending, and a reader indexes
# its own snapshot.  Two threads that extend at once each publish a whole
# prefix; a shorter one may win, and is extended again on demand.
_primes: list[int] = []


def _prime(i: int) -> int:
    """The i-th prime, from _prime(0) = 2.  Each extension sieves the odd
    numbers of [lo, lo + max(4096, lo // 8)) above the last prime."""
    global _primes
    ps = _primes
    while len(ps) <= i:
        lo = ps[-1] + 2 if ps else 3
        hi = lo + max(4096, lo // 8)
        flags = bytearray(b"\x01") * (hi - lo)
        for q in range(3, math.isqrt(hi) + 1, 2):
            s = max(q * q - lo, -lo % q)
            flags[s::q] = bytes(len(range(s, hi - lo, q)))
        ps = _primes = (ps or [2]) + list(compress(range(lo, hi, 2), flags[::2]))
    return ps[i]


_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)
# The blocks of 64 primes from 7 up, each with its product, built so far;
# _block extends them only as far as a walk reaches, published like _primes.
_blocks: list[tuple[int, tuple[int, ...]]] = []


def _block(j: int) -> tuple[int, tuple[int, ...]]:
    """The product and primes of block j, the primes 7 <= p < 2^16 from
    place 64j on, read from the one sieve behind _prime."""
    global _blocks
    bs = _blocks
    while len(bs) <= j:
        k = 3 + 64 * len(bs)  # _prime(3) = 7
        primes = tuple(p for p in map(_prime, range(k, k + 64)) if p < 1 << 16)
        bs = _blocks = bs + [(math.prod(primes), primes)]
    return bs[j]


def _factor_into(n: int, counts: dict[int, int], p: int, i: int, k: int = 1) -> None:
    """Add the prime factorization of n^k to counts.

    No prime below p divides n; from 65537 on, p is the value at place i of
    the 2-3-5 wheel 7, 11, 13, 17, ...  Each pass records n once it is below
    p^2 or prime, and replaces a perfect square by its root.  Otherwise, up
    to 65521, the largest prime below 2^16, it divides out the primes of
    g = gcd(n, product) for the next block of 64 primes with g > 1.  Past
    the blocks it takes the root of a perfect power, or else divides out
    the next prime the wheel meets from 65537 up to 10^6, or past 10^6
    splits n by rho.  So the primality test runs once per block or wheel
    prime that divides n, and the perfect-power test only where the wheel
    or rho would take over.
    """
    j = 0
    while n > 1:
        if n < p * p or is_prime(n):
            counts[n] = counts.get(n, 0) + k
            return
        # An inert prime's norm p^2 skips the blocks.
        if (r := math.isqrt(n)) * r == n:
            n, k = r, 2 * k
            continue
        # n is composite, so it has a prime factor below sqrt(n); a gcd with
        # each block's product finds any below 2^16.
        found = ()
        while p <= 65521 and not found:
            product, primes = _block(j)
            j += 1
            if (g := math.gcd(n, product)) > 1:
                found = [q for q in primes if g % q == 0]
            p = primes[-1] + 2
        if not found:
            if p < 65537:
                p, i = 65537, 3
            # The wheel needs n to have two distinct prime factors, and rho
            # needs about sqrt(q) steps to split a power of a large prime q.
            root = _perfect_power(n, p)
            if root is not None:
                n, k = root[0], k * root[1]
                continue
            # The wheel's tail from 2^16 to _TRIAL_BOUND stays as it was;
            # cutting it, and _TRIAL_BOUND with it, is ROADMAP item 8's.
            while p <= _TRIAL_BOUND and n % p:
                p += _WHEEL[i]
                i = (i + 1) & 7
            if p > _TRIAL_BOUND:
                d = _brent_rho(n)
                _factor_into(d, counts, p, i, k)
                n //= d
                continue
            # Every prime below p is gone from n, so p is prime.
            found = (p,)
        for q in found:
            while n % q == 0:
                n //= q
                counts[q] = counts.get(q, 0) + k


class IntFactorization(Record):
    """n = prod p^e with the primes strictly increasing; fields n and
    factors, a tuple of (p, e) pairs."""

    __slots__ = ("n", "factors")

    def __iter__(self):
        return iter(self.factors)


def factor_rational(n: int) -> IntFactorization:
    """Complete prime factorization of a positive integer.

    2, 3 and 5 are divided out first; the cofactor goes to one loop that
    stops once it is a prime, takes the root of a perfect square, divides
    out the primes below 2^16 by one gcd per block of 64 primes, then takes
    the root of a composite perfect power, divides by the 2-3-5 wheel from
    65537 up to 10^6 and splits what is left by Brent's rho.
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


def _classify(p: int, rg: Ring) -> int:
    """chi_D(p) for a prime p: 0 when p ramifies, 1 when it splits and -1
    when it is inert.  By Euler's criterion for odd p; a composite p gets
    some value in {1, 0, -1}."""
    D = rg.D
    if D % p == 0:
        return 0
    if p == 2:
        # D = 1 + 4c is odd here, and 2 splits when w^2 = w + c has a root
        # mod 2, that is when c is even.
        return 1 if D % 8 == 1 else -1
    return 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1


def classify_rational_prime(p: int, rg: Ring) -> PrimeClass:
    require_ints(p=p)
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not a rational prime")
    return (PrimeClass.RAMIFIED, PrimeClass.SPLIT, PrimeClass.INERT)[_classify(p, rg)]


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo an odd prime p: one
    power a^((p+1)/4) when p = 3 mod 4, as a^((p-1)/2) = 1 makes its square
    a, and Tonelli-Shanks otherwise."""
    a %= p
    if a == 0:
        return 0
    if p & 3 == 3:
        return pow(a, (p + 1) >> 2, p)
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


def _norm_equation_solutions(
    p: int, rg: Ring, root: int | None = None
) -> list[QuadInt]:
    """An x with N(x) = p and its conjugate, for a split or ramified p;
    root, when given, is a square root of D mod p."""
    # 4 N(a + b*w) = (2a + T*b)^2 - D*b^2 with D < 0, so solve
    # u^2 - D v^2 = 4p by the 4p form of Cornacchia's algorithm (Cohen,
    # Alg. 1.5.3) and take b = v, a = (u - T*v)/2.
    T, D = rg.T, rg.D
    if p == 2:
        # 8 = u^2 - D v^2 forces v = 1, so 8 + D must be a square.
        u, v = math.isqrt(8 + D), 1
    else:
        u = _sqrt_mod(D, p) if root is None else root
        if (u - D) % 2:
            u = p - u
        a, lim = 2 * p, math.isqrt(4 * p)
        while u > lim:
            a, u = u, a % u
        v = math.isqrt((4 * p - u * u) // -D)
    x = rg.element((u - T * v) // 2, v)
    assert x.norm() == p, (p, rg.d)
    return [x, x.conjugate()]


def _primes_above(p: int, rg: Ring, root: int | None = None) -> tuple[QuadInt, ...]:
    """The canonical primes above p; root, when given, is a square root of
    D mod p, and saves finding one."""
    chi = _classify(p, rg)
    if chi < 0:
        return (rg.element(p),)
    reps = {z.canonical_associate() for z in _norm_equation_solutions(p, rg, root)}
    # Every rep has norm p: largest a, then smallest b.
    ordered = sorted(reps, key=lambda z: (-z.a, z.b))
    assert len(ordered) == 1 + chi
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
    return _classify(r, z.ring) < 0


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


def _factor_element(z: QuadInt, primes=None) -> QuadFactorization:
    """The factorization of a nonzero z.  primes, when given, is
    _norm_primes(N(z), z.ring), whose primes above each p it reuses.

    At a split p^e the two primes above p share e as (e - s, s), where
    s = v_p(c) for the content c = gcd(a, b) of z = a + b*w: p^m divides z
    exactly when it divides a and b, and p^m = pi^m pibar^m, so the smaller
    share is s.  When e > 2s, z' = z / p^s has content prime to p, so p does
    not divide b', and z' lies in the one prime above p that maps w to the
    residue rho = -a' / b' mod p; that prime, x + y*w with x + y*rho = 0 mod
    p, takes e - s.  rho is a root of w^2 = T*w + c mod p, so 2 rho - T is a
    square root of D, and the primes above p start from it."""
    rg = z.ring
    if primes is None:
        primes = [(p, e, None) for p, e in factor_rational(z.norm())]
    content = math.gcd(z.a, z.b)
    factors: list[tuple[QuadInt, int]] = []
    for p, e, above in primes:
        split = len(above) == 2 if above else _classify(p, rg) > 0
        if split:
            s = 0
            while content % p == 0:
                content //= p
                s += 1
            rho = root = None
            if e > 2 * s:
                ps = p**s
                rho = -(z.a // ps) * pow(z.b // ps, -1, p) % p
                root = (2 * rho - rg.T) % p
            pi, pibar = above or _primes_above(p, rg, root)
            # Were the share wrong, the unit check below would fail.
            r = s if rho is None or (pi.a + pi.b * rho) % p else e - s
            factors += [(x, k) for x, k in ((pi, r), (pibar, e - r)) if k]
        else:
            # A ramified prime has norm p; an inert one has norm p^2, so it
            # contributes a square to N(z).
            pi = (above or _primes_above(p, rg))[0]
            k, odd = divmod(e, 1 if pi.norm() == p else 2)
            assert not odd, (z, p, e)
            factors.append((pi, k))
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
    return _factor_element(z)
