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
the norm, and those primes are counted from prime sums (Lucy_Hedgehog's
recursion, in O(sqrt(bound)) memory) and tested in closed form rather than
visited.  Elements are built only for the choices that hit, and every hit
is re-validated through the naive divisor sum before it is reported.
"""

from __future__ import annotations

import math
import time
from itertools import accumulate

from .divisor_functions import NAIVE_NORM_CAP, delta, delta_naive, geo
from .primes import PrimeClass, _classify, _iroot, _primes_above, is_prime
from .records import Record
from .rings import QuadInt, Ring


class SearchReport(Record):
    """One search: its ring, n, t and norm bound, the sorted hits, the count
    of elements examined and the wall time; odd_norm marks an odd-norm
    search, hit_checks holds the verifier reports run on each hit and
    backend names the search that ran."""

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
    )
    _defaults = {
        "odd_norm": lambda: False,
        "hit_checks": list,
        "backend": lambda: "norm",
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


def _prime_counts(rg: Ring, bound: int):
    """(small, large, primes): small[v] = F(v) for v <= r = isqrt(bound) + 1,
    large[k] = F(bound // k) for 1 <= k <= bound // (r + 1), and (p, chi_D(p))
    for the primes p <= r.  F(v) = pi(v) + the sum of chi_D(p) over the
    primes p <= v is the number of elements of prime norm at most v.

    chi_D is completely multiplicative with period |D|, so both sums follow
    Lucy_Hedgehog's recursion S(v) -= f(p) * (S(v // p) - S(p - 1)) over
    the primes p <= sqrt(v), from S(v) = f(2) + ... + f(v), in O(bound^(3/4))
    steps and O(sqrt(bound)) memory."""
    mod = -rg.D
    # chi_D on one period, from the smallest prime factor p of each j.
    chi = [0, 1]
    for j in range(2, mod):
        p = next(p for p in range(2, j + 1) if j % p == 0)
        chi.append(_CHI[_classify(p, rg)] * chi[j // p])
    # chi_D(1) + ... + chi_D(v mod |D|): chi_D sums to 0 over a period.
    pre = list(accumulate(chi))
    # One above isqrt(bound): an odd-norm scan reads F(2) at any bound < 4.
    r = math.isqrt(bound) + 1
    big = bound // (r + 1)
    # The sums over 2..v of 1 (s0, l0) and chi_D (s1, l1), by v and by k.
    s0 = [0, *range(r)]
    s1 = [0] + [pre[v % mod] - 1 for v in range(1, r + 1)]
    l0 = [0] + [bound // k - 1 for k in range(1, big + 1)]
    l1 = [0] + [pre[bound // k % mod] - 1 for k in range(1, big + 1)]
    primes = []
    for p in range(2, r + 1):
        if s0[p] == s0[p - 1]:
            continue
        c = chi[p % mod]
        primes.append((p, c))
        kmax = min(big, (bp := bound // p) // p)
        k1 = min(kmax, big // p)
        for s, l, f in ((s0, l0, 1), (s1, l1, c)):
            # Large v first: they read the small sums before p updates them.
            a = s[p - 1]
            l[1 : k1 + 1] = [l[k] - f * (l[k * p] - a) for k in range(1, k1 + 1)]
            l[k1 + 1 : kmax + 1] = [
                l[k] - f * (s[bp // k] - a) for k in range(k1 + 1, kmax + 1)
            ]
            s[p * p :] = [s[v] - f * (s[v // p] - a) for v in range(p * p, r + 1)]
    small = [a + b for a, b in zip(s0, s1)]
    large = [a + b for a, b in zip(l0, l1)]
    return small, large, primes


def _elements(rg: Ring, split, fixed, choices) -> list[QuadInt]:
    """The canonical elements of one norm: for each rs in choices, the one
    with pi^r * pibar^(e - r) at each split prime and r in rs, times the
    fixed part of the norm's factorization."""
    base = rg.one()
    for p, k, _ in fixed:
        base = base * _primes_above(p, rg)[0] ** k
    parts = []
    for p, e in split:
        pi, pibar = _primes_above(p, rg)
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
    small, large, primes = _prime_counts(rg, bound)
    walk = primes[1:] if odd_only else primes  # primes[0] is 2
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
            # F(cap) - F(lo), with F(bound // m) at large[m].
            leaves = (large[m] if m < len(large) else small[cap]) - small[lo]
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
                if lo < p <= cap and p**h == ph and is_prime(p):
                    if (c := _CHI[_classify(p, rg)]) > 0:
                        hit(m * p, split + ((p, 1),), fixed)
                    elif c == 0:
                        hit(m * p, split, fixed + ((p, 1, p),))
        for j in range(start, len(walk)):
            p, c = walk[j]
            if p * p > cap:
                break
            # The primes above p have norm p, or p^2 when p is inert.
            q = p * p if c < 0 else p
            qh = q**h
            k, qk = 1, q
            while qk <= cap:
                if c > 0:
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
