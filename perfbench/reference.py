"""Reference arithmetic for checking the benchmark's outputs.

Imports nothing from quadperfect.  Every element of the ring of integers of
Q(sqrt d) is held as a pair (u, v) meaning (u + v*sqrt(d))/2, with u and v
both even for d = -1, -2 and u = v (mod 2) for the half-integer rings.  This
is a different coordinate system from the library's (a, b), so a shared
slip in the basis conversion cannot hide.  Everything here is brute force
or a textbook algorithm written out afresh: lattice-point counts, divisor
classes found by trying every element whose norm divides N(z), a
convolution search for perfect elements, and Tonelli-Shanks plus
Cornacchia for split primes.
"""

from __future__ import annotations

import math
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The witness set above is deterministic below this limit.
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_half(d: int) -> bool:
    return d % 4 == 1


def to_uv(d: int, a: int, b: int) -> tuple[int, int]:
    """Library coordinates a + b*w to (u, v)."""
    return (2 * a + b, b) if is_half(d) else (2 * a, 2 * b)


def from_uv(d: int, z: tuple[int, int]) -> tuple[int, int]:
    """(u, v) back to library coordinates a + b*w."""
    u, v = z
    return ((u - v) // 2, v) if is_half(d) else (u // 2, v // 2)


def integral(d: int, u: int, v: int) -> bool:
    if is_half(d):
        return (u - v) % 2 == 0
    return u % 2 == 0 and v % 2 == 0


def norm(d: int, z: tuple[int, int]) -> int:
    u, v = z
    return (u * u - d * v * v) // 4


def mul(d: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    u1, v1 = x
    u2, v2 = y
    return ((u1 * u2 + d * v1 * v2) // 2, (u1 * v2 + u2 * v1) // 2)


def power(d: int, x: tuple[int, int], e: int) -> tuple[int, int]:
    out = (2, 0)
    for _ in range(e):
        out = mul(d, out, x)
    return out


def divide(d: int, z: tuple[int, int], x: tuple[int, int]) -> tuple[int, int] | None:
    """z / x when x divides z, else None."""
    n = norm(d, x)
    u, v = mul(d, z, (x[0], -x[1]))
    if u % n or v % n:
        return None
    q = (u // n, v // n)
    return q if integral(d, *q) else None


def points_of_norm(d: int, m: int) -> list[tuple[int, int]]:
    """Every element of norm m: all (u, v) with u^2 + |d| v^2 = 4m."""
    out = []
    vmax = math.isqrt(4 * m // -d)
    for v in range(-vmax, vmax + 1):
        rem = 4 * m + d * v * v
        u = math.isqrt(rem)
        if u * u != rem:
            continue
        for uu in {u, -u}:
            if integral(d, uu, v):
                out.append((uu, v))
    return out


def units(d: int) -> list[tuple[int, int]]:
    return points_of_norm(d, 1)


def class_key(d: int, z: tuple[int, int]) -> tuple[int, int]:
    """One fixed representative of the associate class of z."""
    return min(mul(d, e, z) for e in units(d))


def count_canonical(d: int, bound: int, odd: bool = False) -> int:
    """Associate classes with 1 <= N <= bound (odd N only when asked):
    lattice points of norm in range, divided by the number of units."""
    points = 0
    vmax = math.isqrt(4 * bound // -d)
    for v in range(-vmax, vmax + 1):
        rem = 4 * bound + d * v * v
        umax = math.isqrt(rem)
        if not odd:
            points += sum(1 for u in range(-umax, umax + 1) if integral(d, u, v))
            continue
        for u in range(-umax, umax + 1):
            if integral(d, u, v) and (u * u - d * v * v) // 4 % 2 == 1:
                points += 1
    if not odd:
        points -= 1  # the origin
    nu = len(units(d))
    if points % nu:
        raise AssertionError(f"{points} lattice points do not split into {nu} classes")
    return points // nu


def int_divisors(n: int) -> list[int]:
    small, large = [], []
    for c in range(1, math.isqrt(n) + 1):
        if n % c == 0:
            small.append(c)
            if c * c != n:
                large.append(n // c)
    return small + large[::-1]


def divisor_classes(d: int, z: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
    """(norm, class key) of every divisor class of z, by trying every
    element whose norm divides N(z)."""
    found = {}
    for m in int_divisors(norm(d, z)):
        for x in points_of_norm(d, m):
            if divide(d, z, x) is not None:
                found[class_key(d, x)] = m
    return sorted((m, key) for key, m in found.items())


def sigma2(d: int, z: tuple[int, int]) -> int:
    """Sum of N(x) over the divisor classes x of z."""
    return sum(m for m, _ in divisor_classes(d, z))


def points_up_to(d: int, bound: int) -> list[tuple[int, tuple[int, int]]]:
    """(norm, element) for every nonzero element of norm <= bound, by norm."""
    out = []
    vmax = math.isqrt(4 * bound // -d)
    for v in range(-vmax, vmax + 1):
        umax = math.isqrt(4 * bound + d * v * v)
        for u in range(-umax, umax + 1):
            if (u or v) and integral(d, u, v):
                out.append(((u * u - d * v * v) // 4, (u, v)))
    out.sort()
    return out


def sigma_table(d: int, bound: int) -> dict[tuple[int, int], int]:
    """sigma2(z) for every nonzero z with N(z) <= bound.

    Convolution over all pairs (x, y) with N(x) N(y) <= bound: each divisor
    x of z = x*y is met exactly once, so the sum of N(x) collected at z is
    the number of units times sigma2(z)."""
    pts = points_up_to(d, bound)
    acc: dict[tuple[int, int], int] = {}
    for nx, x in pts:
        lim = bound // nx
        for ny, y in pts:
            if ny > lim:
                break
            z = mul(d, x, y)
            acc[z] = acc.get(z, 0) + nx
    nu = len(units(d))
    return {z: s // nu for z, s in acc.items()}


def hits_in(
    d: int, table: dict, t: int, bound: int, odd: bool = False
) -> set[tuple[int, int]]:
    """Class keys of every z in the table with N(z) <= bound and
    sigma2(z) = t * N(z); odd norms only when asked."""
    hits = set()
    for z, s in table.items():
        nz = norm(d, z)
        if nz > bound or (odd and nz % 2 == 0):
            continue
        if s == t * nz:
            hits.add(class_key(d, z))
    return hits


def brute_hits(d: int, t: int, bound: int, odd: bool = False) -> set[tuple[int, int]]:
    return hits_in(d, sigma_table(d, bound), t, bound, odd)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_LIMIT:
        raise ValueError("outside the deterministic witness range")
    s, r = 0, n - 1
    while r % 2 == 0:
        s, r = s + 1, r // 2
    for a in _MR_BASES:
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def discriminant(d: int) -> int:
    return d if is_half(d) else 4 * d


def classify(d: int, p: int) -> str:
    """'ramified', 'split' or 'inert' for a rational prime p: ramified when
    p divides the discriminant, split when some element has norm p."""
    if discriminant(d) % p == 0:
        return "ramified"
    if p < 10**7:
        return "split" if points_of_norm(d, p) else "inert"
    return "split" if sqrt_mod(discriminant(d) % p, p) is not None else "inert"


def sqrt_mod(a: int, p: int) -> int | None:
    """x with x^2 = a (mod p) for an odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
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


def cornacchia(d: int, p: int) -> tuple[int, int]:
    """An element of norm p for a split odd prime p: Cornacchia's algorithm
    on x^2 + |D| y^2 = 4p with D the discriminant."""
    disc = discriminant(d)
    x0 = sqrt_mod(disc % p, p)
    if x0 is None:
        raise ValueError(f"{p} does not split in d={d}")
    if (x0 - disc) % 2:
        x0 = p - x0
    a, b = 2 * p, x0
    lim = math.isqrt(4 * p)
    while b > lim:
        a, b = b, a % b
    c, rem = divmod(4 * p - b * b, -disc)
    y = math.isqrt(c)
    if rem or y * y != c:
        raise ValueError(f"no solution of the norm equation for p={p}, d={d}")
    z = (b, y) if is_half(d) else (b, 2 * y)
    if norm(d, z) != p:
        raise AssertionError((d, p, z))
    return z


def prime_element(d: int, p: int) -> tuple[int, int]:
    """A prime element above the rational prime p: p itself when inert,
    else an element of norm p."""
    cls = classify(d, p)
    if cls == "inert":
        return (2 * p, 0)
    if p < 10**4 or cls == "ramified":
        return points_of_norm(d, p)[0]
    return cornacchia(d, p)


def conjugate(z: tuple[int, int]) -> tuple[int, int]:
    return (z[0], -z[1])


def rational_factor(n: int) -> list[tuple[int, int]]:
    """Trial division; meant for norms up to about 10^12."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def valuation(d: int, pi: tuple[int, int], z: tuple[int, int]) -> int:
    e = 0
    while True:
        q = divide(d, z, pi)
        if q is None:
            return e
        z, e = q, e + 1


def factorization(d: int, z: tuple[int, int]) -> list[tuple[int, tuple[int, int], int]]:
    """(prime norm, class key, exponent) for each prime class dividing z."""
    out = []
    for p, e in rational_factor(norm(d, z)):
        pi = prime_element(d, p)
        cands = [pi] if classify(d, p) != "split" else [pi, conjugate(pi)]
        for c in cands:
            k = valuation(d, c, z)
            if k:
                out.append((norm(d, c), class_key(d, c), k))
    return sorted(out)


def norm2_primes(d: int) -> list[tuple[int, int]]:
    """The elements of norm 2 up to associates: one for d = -1, -2, two
    conjugates for d = -7."""
    return sorted({class_key(d, x) for x in points_of_norm(d, 2)})


def decompose_even(d: int, z: tuple[int, int]) -> dict:
    """z = xi^gamma * x with N(x) odd, q = 2^(gamma+1) - 1,
    sigma2(x) = 2^(gamma+1) * m, m = q^k * v with q not dividing v."""
    divides = [(xi, valuation(d, xi, z)) for xi in norm2_primes(d)]
    divides = [(xi, g) for xi, g in divides if g]
    if len(divides) != 1:
        raise ValueError(f"expected exactly one norm-2 prime to divide {z}")
    xi, gamma = divides[0]
    x = divide(d, z, power(d, xi, gamma))
    q = (1 << (gamma + 1)) - 1
    m, rem = divmod(sigma2(d, x), 1 << (gamma + 1))
    if rem:
        raise ValueError("sigma2(x) is not divisible by 2^(gamma+1)")
    k, v = 0, m
    while v % q == 0:
        v, k = v // q, k + 1
    return {"xi": xi, "gamma": gamma, "x": x, "q": q, "m": m, "k": k, "v": v}


def index2(d: int, z: tuple[int, int]) -> Fraction:
    return Fraction(sigma2(d, z), norm(d, z))
