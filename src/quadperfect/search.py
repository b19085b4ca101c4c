"""Norm-bounded exhaustive search for n-powerfully t-perfect elements.

The search runs over norms, not lattice points, and counts apart from
finding: the canonical elements of norm at most the bound are counted row
by row as the lattice points of an ellipse.  N is a norm exactly when each
inert prime divides it to an even power, and the canonical elements of
norm N match one-to-one the ways to share each split exponent e between
the two conjugate primes above p as (r, e - r).  Because delta(n, z) is a
product of geometric sums over z's prime factorization, each element's
delta follows from those (r, e - r) and the ramified and inert exponents
alone, in exact integer arithmetic.  A depth-first walk over the norms,
each node holding only its norm and its elements' delta values, reads
its primes by index from the shared sieve, keeps only chi_D(p) for each
prime p it reaches, and returns the norms that hit.  A node's child loop
tests each child for a hit itself.  It opens the child only when the
child's norm leaves room for one more prime and some of its values are
below the target with a denominator that a cofactor's norm can clear, and
it passes the child only those values.  It stops at the first prime where
even the largest value left would need an index out of reach by size.
Each hit norm is factored once, into rational primes and the primes above
them.  That builds the norm's elements, and re-validates each of them:
its split exponents from its content and its residue mod p, its unit by
one exact division, and delta by the sum over its divisor classes, before
it is reported.
"""

from __future__ import annotations

import math
import time
from itertools import count, product

from .divisor_functions import _divisor_products, geo
from .errors import require_ints
from .primes import (
    QuadFactorization,
    _classify,
    _factor_element,
    _iroot,
    _norm_primes,
    _prime,
    is_prime,
)
from .records import Record
from .rings import QuadInt, Ring
from .theorems import check_odd_structure, check_prime_count


class SearchReport(Record):
    """One search: its ring, n, t and norm bound, the sorted hits, the count
    of elements examined and the wall time; odd_norm marks an odd-norm
    search, and hit_checks holds the verifier reports run on each of its
    hits ([] for any other search).  backend is a class constant, not a
    field: there is one search path, and the name stays in the JSON for
    the benchmark."""

    __slots__ = (
        "ring",
        "n",
        "t",
        "norm_bound",
        "hits",
        "elements_scanned",
        "wall_time_ms",
        "odd_norm",
        "hit_checks",
    )
    backend = "norm"

    def to_json(self) -> dict:
        return {
            "ring": {"d": self.ring.d},
            "n": self.n,
            "t": self.t,
            "norm_bound": self.norm_bound,
            "hits": [z.to_json() for z in self.hits],
            "elements_scanned": self.elements_scanned,
            "wall_time_ms": self.wall_time_ms,
            "odd_norm": self.odd_norm,
            "hit_checks": [
                [rep.to_json() for rep in reps] for reps in self.hit_checks
            ],
            "backend": self.backend,
        }


def _element_count(rg: Ring, bound: int) -> int:
    """The number of canonical elements of norm at most bound: the lattice
    points (x, b) != 0 with x = 2a + T*b = T*b mod 2 and x^2 - D*b^2 =
    4 N(a + b*w) <= 4 * bound.  With r = isqrt(4 * bound + D*b^2), row b has
    r + 1 such x in [-r, r], less one when r + T*b is odd.  Row 0 drops x = 0,
    rows b and -b match, and each element is len(units) associate points."""
    D, T, four_b = rg.D, rg.T, 4 * bound
    r0 = math.isqrt(four_b)
    rows = sum(
        (r := math.isqrt(four_b + D * b * b)) + 1 - ((r + T * b) & 1)
        for b in range(1, math.isqrt(four_b // -D) + 1)
    )
    return (r0 - (r0 & 1) + 2 * rows) // len(rg.units())


def _hits_of_norm(rg: Ring, N: int, h: int, t: int, primes) -> list[QuadInt]:
    """The canonical z of norm N with delta(2h, z) = t * N^h; [] when an
    inert prime divides N to an odd power, so N is not a norm.  Each z is
    pi^k at each ramified or inert p, N(pi)^k = p^e, times pi^r * pibar^(e-r)
    at each split p^e, for one r in 0..e.  primes is _norm_primes(N, rg)."""
    fixed, fixed_delta, choices = rg.one(), 1, []
    for p, e, above in primes:
        if len(above) == 2:
            pi, pibar = above
            q = p**h
            choices.append(
                [
                    (pi**r * pibar ** (e - r), geo(q, r) * geo(q, e - r))
                    for r in range(e + 1)
                ]
            )
            continue
        q = above[0].norm()
        k, odd = divmod(e, 1 if q == p else 2)
        if odd:
            return []
        fixed *= above[0] ** k
        fixed_delta *= geo(q**h, k)
    need = t * N**h
    return [
        math.prod([z for z, _ in combo], start=fixed).canonical_associate()
        for combo in product(*choices)
        if fixed_delta * math.prod([f for _, f in combo]) == need
    ]


def _scan(rg: Ring, n: int, t: int, bound: int, odd_only: bool) -> list[int]:
    """The norms of the hits, unsorted; t may be any rational >= 1.

    A depth-first walk over norms m * p^e, primes in increasing order, that
    opens a child only where m * p^2 <= bound; an inert prime enters with
    even exponents only, so every node is a norm.  A node carries m; s,
    the next prime after m's largest (2, or 3 in an odd-norm scan), with
    its index j, s = _prime(j + odd_only) in the shared sieve; the delta
    values of m's elements that pass the filter below, each with its
    denominator b; and the product of the walk's primes below s.  The
    parent's child loop reports each
    child m * q^k when one of its values is t * (m * q^k)^h, before it
    decides whether to open it.  Primes above sqrt(bound / m) end norms
    m * p with no children, tested in closed form; an inert p is skipped
    there, before its primality test, as m * p is no norm.  The child
    loop's step at p reads the next prime from the sieve, with no
    primality test: it is s for p's children and the loop's next p.  The
    walk keeps only chi_D(p), 1, 0 or -1 as p splits, ramifies or stays
    inert, in a list indexed by j, found as it first steps through each
    prime.  Each child loop works out its own steps.

    Pruning.  A descendant of m is m * M, cap = bound // m >= M > 1, and
    its hits are the elements x * y with delta(x) = v one of m's values and
    y of norm M, coprime to x, whose primes lie above primes >= s; such a
    y has index(y) = delta(y) / M^h = t * m^h / v.
    - Magnitude.  index(y) is a product of ratios geo(q^h, k) / q^(hk),
      k >= 1, each in (1, q^h / (q^h - 1)); a prime power p^e of M gives
      at most min(e, 2) <= e of them, with q = p, or p^2 for inert p, so
      q >= s.  M has at most w = floor(log_s(cap)) prime factors, so y
      exists only if v < t * m^h < v * (s^h / (s^h - 1))^w.  The child
      loop stops at the first p where max(v) fails this with s = p; the
      bound falls as p grows, so no later child can hit either.  At the
      root, where m = v = 1, a t >= 2 meets this bound only if s^h <
      2w + 1 for any w at least the count of M's prime factors: were
      s^h >= 2w + 1, Bernoulli's inequality would give (s^h / (s^h -
      1))^w <= (s^h - 1) / (s^h - 1 - w) <= 2 <= t.  The root tests this
      with w the bit length of bound and s^h >= 2^(h * (bitlen(s) - 1)),
      so a huge n builds no power of s^h.
    - The denominator lemma, the factor-chain argument of odd perfect
      number searches (Brent, Cohen and te Riele, Math. Comp. 57, 1991).
      Let t * m^h / v = a / b in lowest terms.  Then b * delta(y) =
      a * M^h, and b is prime to a, so b divides M^h: every prime of b
      divides M.  Hence (a) v needs b <= cap^h, as M <= cap; (c) b has no
      prime below s, as M has none, nor 2 in an odd-norm scan, where M
      is odd; and (b) once the child loop has visited every child through
      p, every descendant left has M prime to p, so v needs b prime to p,
      and the loop stops when no v is left.
    - The break.  The child m * q^k has the values v * f over the shares
      f of q^k, and index v * f / (m * q^k)^h = (v / m^h) (f / q^(hk)).
      Each f / q^(hk) is at least g_k / q^(hk) = 1 + q^-h + ... + q^-(hk),
      as g_r * g_(k-r) holds every term of g_k; that least share index
      grows strictly with k, and a child's descendants only multiply its
      index by ratios above 1.  So once every value of m * q^k is at least
      t * (m * q^k)^h, only m * q^k itself can hit, and neither its
      descendants nor any m * q^j, j > k, nor theirs: the k-loop stops.
    - No room for a prime.  A child m' = m * q^k whose cap' = bound // m'
      is below the next prime p' after p opens no child, which needs
      m' * p'^2 <= bound, and tests no leaf, which needs a prime in
      [p', cap'].  So it is not opened; its own hit test is the parent's.
    A parent opens a child m' only with the values of m' that pass v <
    t * m'^h, (a) and (c), and only when one is left; the root's only value,
    1, passes the same filter after the root's bit-length test.  The
    magnitude test is the child loop's break, run on the largest value
    left, first at p = s.  A smaller value that fails it is kept: it gives
    no hit among m's descendants, so keeping it changes no result."""
    h = n // 2
    norms = [1] if t == 1 else []
    chis = []  # chi_D(_prime(j + odd_only)) for each index j the walk reaches

    def kept(vals, tm, cap, below):
        # Each v < t * m^h, mapped to b, the denominator of t * m^h / v, where
        # b passes (a) and (c); for an integer t, b is v // gcd(tm, v).
        num, den, caph = tm.numerator, tm.denominator, cap**h
        dens = {}
        for v in vals:
            if v < tm:
                b = den * v // math.gcd(num, den * v)
                if b <= caph and math.gcd(b, below) == 1:
                    dens[v] = b
        return dens

    def visit(m, tm, j, s, dens, w, below):
        # s = _prime(j + odd_only), dens is kept(m's values), tm is t * m^h
        # and w is at least floor(log_s(cap)).
        cap = bound // m
        # A leaf prime p multiplies each delta value v of m by 1 + p^h, and
        # v * (1 + p^h) = t * (m * p)^h solves to p^h = v / (t * m^h - v).
        plo = max(s - 1, math.isqrt(cap))
        for v in dens:
            ph, rem = divmod(v, tm - v)
            if not rem:
                p = _iroot(ph, h)
                # An inert p is skipped before is_prime: Euler's criterion on
                # a composite p can only skip a p that is no leaf anyway.
                if plo < p <= cap and p**h == ph and _classify(p, rg) >= 0:
                    if is_prime(p):
                        norms.append(m * p)
        p = s
        for j in count(j):
            while p**w > cap:
                w -= 1
            ph = p**h
            if w < 2 or max(dens) * ph**w <= tm * (ph - 1) ** w:
                break
            if j == len(chis):
                chis.append(_classify(p, rg))
            c = chis[j]
            below *= p
            room = _prime(j + 1 + odd_only)  # the children's s
            # The primes above p have norm q = p, or p^2 when p is inert; the
            # step to m * q^k multiplies by g_r * g_(k-r) for a split p, one
            # factor per share (r, k - r), and by g_k otherwise, where g_k =
            # geo(q^h, k) = g_(k-1) * q^h + 1.  tq is t * (m * q^k)^h.
            q = p * p if c < 0 else p
            qh, qk, gs, tq = q**h, q, [1], tm
            while qk <= cap:
                k = len(gs)
                gs.append(gs[-1] * qh + 1)
                tq *= qh
                if c > 0:
                    fs = {gs[r] * gs[k - r] for r in range(k // 2 + 1)}
                else:
                    fs = (gs[k],)
                vals = {v * f for v in dens for f in fs}
                if tq in vals:
                    norms.append(m * qk)
                if min(vals) >= tq:
                    break
                if cap // qk >= room and (child := kept(vals, tq, cap // qk, below)):
                    visit(m * qk, tq, j + 1, room, child, w, below)
                qk *= q
            dens = {v: b for v, b in dens.items() if b % p}
            if not dens:
                break
            p = room

    s = _prime(odd_only)
    w = bound.bit_length()
    if t >= 2 and h * (s.bit_length() - 1) >= (2 * w + 1).bit_length():
        return norms
    below = 2 if odd_only else 1
    if root := kept({1}, t, bound, below):
        visit(1, t, 0, s, root, w, below)
    return norms


def _validate(n: int, t: int, bound: int) -> None:
    require_ints(n=n, t=t, bound=bound)
    if n <= 0 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    if t < 2:
        raise ValueError(f"t must be an integer >= 2, got {t!r}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")


def _revalidate(z: QuadInt, primes, n: int, t: int) -> QuadFactorization:
    # Hits are rare; check each against a path independent of the scan that
    # produced it.  It shares with _hits_of_norm only primes, that is
    # factor_rational(N) and _primes_above(p) for each p, the same pure
    # functions of N and p that a fresh factor(z) would call.  The rest is
    # its own: each split exponent comes from z's content and its residue
    # mod p, the unit from the last exact_divide and is_unit, which fail
    # were a share wrong, and delta from the sum of N(x)^h over an explicit
    # divisor list at every norm, not from the geo closed form that picked
    # the hit.  The list's cap of 2^20 classes lies far beyond any norm
    # bound the count can scan.  Returns z's factorization.
    fac = _factor_element(z, primes)
    h = n // 2
    if sum(x.norm() ** h for x in _divisor_products(fac)) != t * z.norm() ** h:
        raise AssertionError(f"norm search reported a false hit: {z}")
    return fac


def _find(
    rg: Ring, n: int, t: int, bound: int, odd_only: bool
) -> list[tuple[QuadInt, QuadFactorization]]:
    """The hits of norm at most bound as (z, factorization) pairs, sorted
    by z.sort_key(); each factorization is the one its revalidation built."""
    found = []
    for N in _scan(rg, n, t, bound, odd_only):
        # One factorization of each hit norm serves all its hits.
        primes = _norm_primes(N, rg)
        for z in _hits_of_norm(rg, N, n // 2, t, primes):
            found.append((z, _revalidate(z, primes, n, t)))
    found.sort(key=lambda zf: zf[0].sort_key())
    return found


def _run_scan(rg: Ring, n: int, t: int, bound: int, odd_only: bool) -> SearchReport:
    start = time.perf_counter_ns()
    hits = [z for z, _ in _find(rg, n, t, bound, odd_only)]
    scanned = _element_count(rg, bound)
    if odd_only:
        # The odd-norm ideals' zeta function is zeta_K times the inverse of
        # its Euler factor at 2, (1 - 2^-s)(1 - chi(2) 2^-s).
        c = _classify(2, rg)
        terms = ((-1 - c, bound // 2), (c, bound // 4))
        scanned += sum(k * _element_count(rg, x) for k, x in terms if k)
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
    # An odd-norm search runs the structure and prime-count verifiers on
    # each hit, outside its wall time.
    checks = [
        [check_odd_structure(z), check_prime_count(z)] for z in hits if odd_only
    ]
    return SearchReport(rg, n, t, bound, hits, scanned, elapsed_ms, odd_only, checks)


def search_perfect(rg: Ring, n: int, t: int, bound: int) -> SearchReport:
    """Every canonical z with N(z) <= bound and index(n, z) = t."""
    _validate(n, t, bound)
    return _run_scan(rg, n, t, bound, False)


def search_odd_norm(rg: Ring, bound: int) -> SearchReport:
    """Odd-norm 2-powerfully 2-perfect search; runs the structure and
    prime-count verifiers on any hit."""
    _validate(2, 2, bound)
    return _run_scan(rg, 2, 2, bound, True)
