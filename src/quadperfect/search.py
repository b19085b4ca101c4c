"""Norm-bounded exhaustive search for n-powerfully t-perfect elements.

The search runs over norms, not lattice points.  N is a norm exactly when
each inert prime divides it to an even power, and the canonical elements of
norm N match one-to-one the ways to share each split exponent e between the
two conjugate primes above p as (r, e - r).  Because delta(n, z) is a
product of geometric sums over z's prime factorization, each choice's delta
follows from (r, e - r) and the ramified and inert exponents alone, in exact
integer arithmetic for any positive even n and any t.  A depth-first walk
builds the norms from their prime factors, so it visits no other N; the
last prime of most norms lies above sqrt(bound / m), where m is the rest of
the norm, and those primes are counted from a sorted array of split primes
and tested in closed form rather than visited.  Elements are built only for
the choices that hit, and every hit is re-validated through the naive
divisor sum before it is reported.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

from .divisor_functions import NAIVE_NORM_CAP, delta, delta_naive, geo
from .primes import PrimeClass, _classify, _iroot, _primes_above
from .rings import QuadInt, Ring


@dataclass
class SearchReport:
    ring: Ring
    n: int
    t: int
    norm_bound: int
    hits: list[QuadInt]
    elements_scanned: int
    wall_time_ms: int
    odd_norm: bool = False
    hit_checks: list = field(default_factory=list)
    backend: str = "norm"

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


# Class codes in the per-scan prime table; 0 marks a non-prime.
_SPLIT, _INERT, _RAMIFIED = 1, 2, 3
_CODE = {
    PrimeClass.SPLIT: _SPLIT,
    PrimeClass.INERT: _INERT,
    PrimeClass.RAMIFIED: _RAMIFIED,
}
# bytes.translate table that recodes a split prime as inert.
_TO_INERT = bytes.maketrans(b"\1", b"\2")


def _prime_classes(rg: Ring, bound: int) -> tuple[bytearray, array, list[int]]:
    """(kinds, split, ramified): kinds[p] is the class code of each prime
    p <= bound and 0 for every other entry, split is the sorted array of the
    split primes <= bound and ramified lists the ramified ones."""
    kinds = bytearray([_SPLIT]) * (bound + 1)
    kinds[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if kinds[p]:
            kinds[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    # A prime p > |D| is odd and prime to D, so it has the class of every
    # prime congruent to it mod |D|: one _classify per residue recodes the
    # whole residue class.  The primes up to |D| are classified one by one.
    mod = -(rg.T + 4 * rg.c)
    for r in range(1, mod):
        if math.gcd(r, mod) > 1:
            continue
        q = next((q for q in range(r + mod, bound + 1, mod) if kinds[q]), None)
        if q is not None and _classify(q, rg.d) is PrimeClass.INERT:
            kinds[r + mod :: mod] = kinds[r + mod :: mod].translate(_TO_INERT)
    ramified = []
    for p in range(2, min(mod, bound) + 1):
        if kinds[p]:
            kinds[p] = _CODE[_classify(p, rg.d)]
            if kinds[p] == _RAMIFIED:
                ramified.append(p)
    split = array("I")
    p = kinds.find(_SPLIT)
    while p >= 0:
        split.append(p)
        p = kinds.find(_SPLIT, p + 1)
    return kinds, split, ramified


def _elements(rg: Ring, split, fixed, choices) -> list[QuadInt]:
    """The canonical elements of one norm: for each rs in choices, the one
    with pi^r * pibar^(e - r) at each split prime and r in rs, times the
    fixed part of the norm's factorization."""
    base = rg.one()
    for p, k, _ in fixed:
        base = base * _primes_above(p, rg.d)[0] ** k
    parts = []
    for p, e in split:
        pi, pibar = _primes_above(p, rg.d)
        parts.append([pi**r * pibar ** (e - r) for r in range(e + 1)])
    out = []
    for rs in choices:
        z = base
        for part, r in zip(parts, rs):
            z = z * part[r]
        out.append(z.canonical_associate())
    return out


def _choices(N: int, split, fixed, h: int, t: int) -> list[tuple[int, ...]]:
    """The exponent choices rs (r for each split (p, e)) whose element of
    norm N has delta = t * N^h."""
    fixed_delta = math.prod([geo(q**h, k) for _, k, q in fixed])
    need, rem = divmod(t * N**h, fixed_delta)
    if rem:
        return []
    # Split prime p contributes geo(p^h, r) * geo(p^h, e - r) to delta;
    # extend the choices prime by prime while the product still divides.
    partial = [((), need)]
    for p, e in split:
        q = p**h
        partial = [
            (rs + (r,), rest // v)
            for rs, rest in partial
            for r in range(e + 1)
            if rest % (v := geo(q, r) * geo(q, e - r)) == 0
        ]
    return [rs for rs, rest in partial if rest == 1]


def _scan(rg: Ring, n: int, t: int, bound: int, odd_only: bool):
    """Hits (unsorted) and the count of elements examined.

    A depth-first walk over norms m * p^e, primes in increasing order, that
    opens a child only where m * p^2 <= bound; an inert prime enters with
    even exponents only, so every node is a norm.  Each node carries its
    split (p, e) and fixed (p, k, q) factors (the prime above p occurs to
    the power k and has norm q), its count of canonical elements and the
    set of their delta values.  With P(m) the largest prime factor of m, the
    primes p in (max(P(m), sqrt(bound/m)), bound/m] end norms m * p with no
    children; they are counted in bulk and tested in closed form."""
    h = n // 2
    kinds, split_primes, ramified = _prime_classes(rg, bound)
    walk = [p for p in range(3 if odd_only else 2, math.isqrt(bound) + 1) if kinds[p]]
    hits = []
    scanned = 0

    def hit(N, split, fixed):
        hits.extend(_elements(rg, split, fixed, _choices(N, split, fixed, h, t)))

    def visit(m, last, start, deltas, mult, split, fixed):
        nonlocal scanned
        cap = bound // m
        lo = max(last, math.isqrt(cap))
        leaves = 0
        if lo < cap:
            count = bisect_right(split_primes, cap) - bisect_right(split_primes, lo)
            leaves = 2 * count
            for p in ramified:
                leaves += lo < p <= cap
        scanned += mult * (1 + leaves)
        tm = t * m**h
        if tm in deltas:
            hit(m, split, fixed)
        # A leaf prime p multiplies each delta value v of m by 1 + p^h, and
        # v * (1 + p^h) = t * (m * p)^h solves to p^h = v / (t * m^h - v).
        for v in deltas:
            den = tm - v
            if den > 0 and v % den == 0:
                ph = v // den
                p = _iroot(ph, h)
                if lo < p <= cap and p**h == ph and kinds[p] in (_SPLIT, _RAMIFIED):
                    if kinds[p] == _SPLIT:
                        hit(m * p, split + ((p, 1),), fixed)
                    else:
                        hit(m * p, split, fixed + ((p, 1, p),))
        for j in range(start, len(walk)):
            p = walk[j]
            if p * p > cap:
                break
            kind = kinds[p]
            # The primes above p have norm p, or p^2 when p is inert.
            q = p * p if kind == _INERT else p
            qh = q**h
            k, qk = 1, q
            while qk <= cap:
                if kind == _SPLIT:
                    fs = {geo(qh, r) * geo(qh, k - r) for r in range(k // 2 + 1)}
                    child = mult * (k + 1), split + ((p, k),), fixed
                else:
                    fs = (geo(qh, k),)
                    child = mult, split, fixed + ((p, k, q),)
                visit(m * qk, p, j + 1, {v * f for v in deltas for f in fs}, *child)
                k, qk = k + 1, qk * q

    # An odd-norm scan keeps 2 out of both the walk and the leaves.
    visit(1, 2 if odd_only else 1, 0, {1}, 1, (), ())
    return hits, scanned


def enumerate_canonical(rg: Ring, bound: int):
    """All sector-canonical elements with norm <= bound, in (norm, a, b)
    order."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    # 4N = (2a + T*b)^2 - D*b^2, so the ball lies in 0 <= -D*b^2 <= 4*bound
    # and |2a + T*b| <= s = sqrt(4*bound + D*b^2).  The sector (see
    # QuadInt.in_fundamental_sector) has b >= 0, and a > 0 where b = 0 or
    # d is -1 or -3.
    T, D = rg.T, rg.T + 4 * rg.c
    a_positive = rg.d in (-1, -3)
    elems = []
    for b in range(math.isqrt(4 * bound // -D) + 1):
        s = math.isqrt(4 * bound + D * b * b)
        lo = 1 if b == 0 or a_positive else -((s + T * b) // 2)
        elems += [QuadInt(rg, a, b) for a in range(lo, (s - T * b) // 2 + 1)]
    elems.sort(key=QuadInt.sort_key)
    yield from elems


def _validate(n: int, t: int, bound: int) -> None:
    if n <= 0 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    if not isinstance(t, int) or t < 2:
        raise ValueError(f"t must be an integer >= 2, got {t!r}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")


def _revalidate(z: QuadInt, n: int, t: int) -> None:
    # Hits are rare; check each against a path independent of the scan that
    # produced it.  The naive divisor sum is capped, so fall back to the
    # exact closed form above the cap.
    nz = z.norm()
    if nz <= NAIVE_NORM_CAP:
        good = delta_naive(n, z) == t * nz ** (n // 2)
    else:
        good = delta(n, z) == t * nz ** (n // 2)
    if not good:
        raise AssertionError(f"norm search reported a false hit: {z}")


def _run_scan(rg: Ring, n: int, t: int, bound: int, odd_only: bool) -> SearchReport:
    start = time.perf_counter_ns()
    hits, scanned = _scan(rg, n, t, bound, odd_only)
    hits.sort(key=QuadInt.sort_key)
    for z in hits:
        _revalidate(z, n, t)
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
