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
each node holding only its norm and its elements' delta values, prunes
every subtree where no index can reach t and returns the norms that hit.
Each hit norm is factored again to build its elements, and every hit is
re-validated through the naive divisor sum before it is reported.
"""

from __future__ import annotations

import math
import time
from itertools import compress, product

from .divisor_functions import NAIVE_NORM_CAP, _geo_product, delta_naive, geo
from .errors import require_ints
from .primes import (
    PrimeClass,
    QuadFactorization,
    _classify,
    _iroot,
    _primes_above,
    factor,
    factor_rational,
    is_prime,
)
from .records import Record
from .rings import QuadInt, Ring


class SearchReport(Record):
    """One search: its ring, n, t and norm bound, the sorted hits, the count
    of elements examined and the wall time; odd_norm marks an odd-norm
    search, hit_checks holds the verifier reports run on each hit, backend
    is always "norm" and hit_factors holds each hit's factorization from
    its revalidation (not part of the JSON)."""

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
        "backend",
        "hit_factors",
    )
    _defaults = {
        "odd_norm": lambda: False,
        "hit_checks": list,
        "backend": lambda: "norm",
        "hit_factors": list,
    }

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


# chi_D(p) by the class of p: 1 + chi_D(p) elements of norm p lie above p.
_CHI = {PrimeClass.SPLIT: 1, PrimeClass.INERT: -1, PrimeClass.RAMIFIED: 0}


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


def _primes_chi(rg: Ring, r: int) -> list[tuple[int, int]]:
    """(p, chi_D(p)) for the primes p <= r, by the sieve of Eratosthenes."""
    sieve = bytearray(2) + bytearray([1]) * (r - 1)
    for p in range(2, math.isqrt(r) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, r + 1, p)))
    return [(p, _CHI[_classify(p, rg)]) for p in compress(range(r + 1), sieve)]


def _hits_of_norm(rg: Ring, N: int, h: int, t: int) -> list[QuadInt]:
    """The canonical z of norm N with delta(2h, z) = t * N^h; [] when an
    inert prime divides N to an odd power, so N is not a norm.  Each z is
    pi^k at each ramified or inert p, N(pi)^k = p^e, times pi^r * pibar^(e-r)
    at each split p^e, for one r in 0..e."""
    fixed, fixed_delta, choices = rg.one(), 1, []
    for p, e in factor_rational(N):
        above = _primes_above(p, rg)
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
    """The norms of the hits, unsorted.

    A depth-first walk over norms m * p^e, primes in increasing order, that
    opens a child only where m * p^2 <= bound; an inert prime enters with
    even exponents only, so every node is a norm.  A node carries m, the
    least prime s its descendants may add (one above the largest prime of
    m; 2 at the root, or 3 in an odd-norm scan) and the delta values of m's
    elements, and reports m when one is t * m^h.  Primes above sqrt(bound /
    m) end norms m * p with no children, tested in closed form; with p inert
    m * p is not a norm and has no element.  The steps through p (q^k and
    the factors the delta values gain) do not depend on the node, so each
    is built once per scan, the first time a node reaches p.

    Pruning.  Going from m to m * M multiplies an element's index v / m^h
    by its cofactor's, a product of ratios geo(q^h, k) / q^(hk), k >= 1,
    each in (1, q^h / (q^h - 1)); a prime power p^e of M gives at most
    min(e, 2) <= e of them, with q = p, or p^2 for inert p, so q >= s.  M
    has at most w = floor(log_s(bound / m)) prime factors, so a descendant
    can hit only through a v with v < t * m^h < v * (s^h / (s^h - 1))^w.
    Each node keeps only those v and returns when none is left.  The child
    loop stops at the first p where max(v) fails the test with s = p; the
    bound falls as p grows, so no later child can hit either."""
    h = n // 2
    walk = _primes_chi(rg, math.isqrt(bound))[odd_only:]  # odd norms: no 2
    norms = []
    steps = {}  # p -> step_table(p, c), filled as the walk reaches p

    def step_table(p, c):
        # (q^k, the delta factors) for each step through p with q^k <= bound;
        # the primes above p have norm q = p, or p^2 when p is inert.
        q = p * p if c < 0 else p
        qh = q**h
        table = []
        k, qk = 1, q
        while qk <= bound:
            if c > 0:
                fs = {geo(qh, r) * geo(qh, k - r) for r in range(k // 2 + 1)}
            else:
                fs = (geo(qh, k),)
            table.append((qk, fs))
            k, qk = k + 1, qk * q
        return table

    def visit(m, s, start, deltas, w):
        # w is at least floor(log_s(cap)) on entry: the parent's value.
        cap = bound // m
        tm = t * m**h
        if tm in deltas:
            norms.append(m)
        while s**w > cap:
            w -= 1
        lo, hi = tm * (s**h - 1) ** w, s ** (h * w)
        deltas = [v for v in deltas if lo < v * hi and v < tm]
        if not deltas:
            return
        # A leaf prime p multiplies each delta value v of m by 1 + p^h, and
        # v * (1 + p^h) = t * (m * p)^h solves to p^h = v / (t * m^h - v).
        plo = max(s - 1, math.isqrt(cap))
        for v in deltas:
            ph, rem = divmod(v, tm - v)
            if not rem:
                p = _iroot(ph, h)
                if plo < p <= cap and p**h == ph and is_prime(p):
                    norms.append(m * p)
        top = max(deltas)
        for j in range(start, len(walk)):
            p, c = walk[j]
            while p**w > cap:
                w -= 1
            ph = p**h
            if w < 2 or top * ph**w <= tm * (ph - 1) ** w:
                break
            if (table := steps.get(p)) is None:
                table = steps[p] = step_table(p, c)
            for qk, fs in table:
                if qk > cap:
                    break
                visit(m * qk, p + 1, j + 1, {v * f for v in deltas for f in fs}, w)

    # s = 3 keeps 2 out of an odd-norm scan's leaves.
    visit(1, 3 if odd_only else 2, 0, {1}, bound.bit_length())
    return norms


def _validate(n: int, t: int, bound: int) -> None:
    require_ints(n=n, t=t, bound=bound)
    if n <= 0 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    if t < 2:
        raise ValueError(f"t must be an integer >= 2, got {t!r}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")


def _revalidate(z: QuadInt, n: int, t: int) -> QuadFactorization:
    # Hits are rare; check each against a path independent of the scan that
    # produced it.  The naive divisor sum is capped, so fall back to the
    # exact closed form above the cap.  Returns z's factorization.
    fac = factor(z)
    nz = z.norm()
    if nz <= NAIVE_NORM_CAP:
        good = delta_naive(n, z, fac) == t * nz ** (n // 2)
    else:
        good = _geo_product(n // 2, fac) == t * nz ** (n // 2)
    if not good:
        raise AssertionError(f"norm search reported a false hit: {z}")
    return fac


def _run_scan(rg: Ring, n: int, t: int, bound: int, odd_only: bool) -> SearchReport:
    start = time.perf_counter_ns()
    norms = _scan(rg, n, t, bound, odd_only)
    hits = [z for N in norms for z in _hits_of_norm(rg, N, n // 2, t)]
    hits.sort(key=QuadInt.sort_key)
    factors = [_revalidate(z, n, t) for z in hits]
    scanned = _element_count(rg, bound)
    if odd_only:
        # The odd-norm ideals' zeta function is zeta_K times the inverse of
        # its Euler factor at 2, (1 - 2^-s)(1 - chi(2) 2^-s).
        c = _CHI[_classify(2, rg)]
        terms = ((-1 - c, bound // 2), (c, bound // 4))
        scanned += sum(k * _element_count(rg, x) for k, x in terms if k)
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
    return SearchReport(
        ring=rg,
        n=n,
        t=t,
        norm_bound=bound,
        hits=hits,
        elements_scanned=scanned,
        wall_time_ms=elapsed_ms,
        odd_norm=odd_only,
        hit_factors=factors,
    )


def search_perfect(rg: Ring, n: int, t: int, bound: int) -> SearchReport:
    """Every canonical z with N(z) <= bound and index(n, z) = t."""
    _validate(n, t, bound)
    return _run_scan(rg, n, t, bound, False)


def search_odd_norm(rg: Ring, bound: int) -> SearchReport:
    """Odd-norm 2-powerfully 2-perfect search; runs the structure and
    prime-count verifiers on any hit."""
    _validate(2, 2, bound)
    report = _run_scan(rg, 2, 2, bound, True)
    if report.hits:
        from .theorems import check_odd_structure, check_prime_count

        report.hit_checks = [
            [check_odd_structure(z), check_prime_count(z)] for z in report.hits
        ]
    return report
