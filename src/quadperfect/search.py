"""Norm-bounded exhaustive search for n-powerfully t-perfect elements.

The search runs over norms, not lattice points, and counts apart from
finding.  The canonical elements of norm N are its ideals, so they are
counted in closed form.  N is a norm exactly when each inert prime divides
it to an even power, and the canonical elements of norm N match one-to-one
the ways to share each split exponent e between the two conjugate primes
above p as (r, e - r).  Because delta(n, z) is a product of geometric sums
over z's prime factorization, each choice's delta follows from (r, e - r)
and the ramified and inert exponents alone, in exact integer arithmetic.
A depth-first walk builds the norms from their prime factors and prunes
every subtree where no index can reach t.  Elements are built only for the
choices that hit, and every hit is re-validated through the naive divisor
sum before it is reported.
"""

from __future__ import annotations

import math
import time
from itertools import accumulate, compress

from .divisor_functions import NAIVE_NORM_CAP, _geo_product, delta_naive, geo
from .primes import (
    PrimeClass,
    QuadFactorization,
    _classify,
    _iroot,
    _primes_above,
    factor,
    is_prime,
)
from .records import Record
from .rings import QuadInt, Ring


class SearchReport(Record):
    """One search: its ring, n, t and norm bound, the sorted hits, the count
    of elements examined and the wall time; odd_norm marks an odd-norm
    search, hit_checks holds the verifier reports run on each hit,
    backend names the search that ran and hit_factors holds each hit's
    factorization from its revalidation (not part of the JSON)."""

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


def _element_count(rg: Ring, bound: int, odd_only: bool) -> int:
    """The number of canonical elements of norm at most bound, odd norms
    only if odd_only.  Each is one ideal, and sum_{b | N} chi(b) ideals
    have norm N, so the count is the sum of chi(b) over a * b <= bound, with
    a and b odd if odd_only.  With u = isqrt(bound), A(x) the number of a
    <= x and X(x) = chi(1) + ... + chi(x), the hyperbola method gives it as
    sum_{k <= u} (chi(k) A(bound // k) + X(bound // k)) - A(u) X(u)."""
    step = 2 if odd_only else 1
    # chi = chi_D, times 1 on odd j if odd_only, on one period, from the
    # smallest prime factor p of each j; chi sums to 0 over the period.
    mod = -rg.D * step
    chi = [0, 1]
    for j in range(2, mod):
        p = next(p for p in range(2, j + 1) if j % p == 0)
        chi.append(0 if odd_only and p == 2 else _CHI[_classify(p, rg)] * chi[j // p])
    pre = list(accumulate(chi))
    u = math.isqrt(bound)
    # A(x) = ceil(x / step) counts the a <= x, odd if odd_only.
    total = 0
    for k in range(1, u + 1, step):
        v = bound // k
        total += chi[k % mod] * ((v + step - 1) // step) + pre[v % mod]
    return total - (u + step - 1) // step * pre[u % mod]


def _primes_chi(rg: Ring, r: int) -> list[tuple[int, int]]:
    """(p, chi_D(p)) for the primes p <= r, by the sieve of Eratosthenes."""
    sieve = bytearray(2) + bytearray([1]) * (r - 1)
    for p in range(2, math.isqrt(r) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, r + 1, p)))
    return [(p, _CHI[_classify(p, rg)]) for p in compress(range(r + 1), sieve)]


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


def _scan(rg: Ring, n: int, t: int, bound: int, odd_only: bool) -> list[QuadInt]:
    """The hits, unsorted.

    A depth-first walk over norms m * p^e, primes in increasing order, that
    opens a child only where m * p^2 <= bound; an inert prime enters with
    even exponents only, so every node is a norm.  Each node carries its
    split (p, e) and fixed (p, k, q) factors (the prime above p occurs to
    the power k and has norm q) and the delta values of its elements.  Its
    descendants add primes p >= s, one above the largest prime of m (s = 2
    at the root, or 3 in an odd-norm scan).  Those above sqrt(bound / m)
    end norms m * p with no children and are tested in closed form.  The
    steps through p (q^k, the factors the delta values gain, the factor
    entry) do not depend on the node, so each is built once per scan, the
    first time a node reaches p.

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
    hits = []
    steps = {}  # p -> step_table(p, c), filled as the walk reaches p

    def step_table(p, c):
        # The steps from a node to its children through p, up to q^k <=
        # bound: q^k, the delta factors and the split or fixed part.  The
        # primes above p have norm q = p, or p^2 when p is inert.
        q = p * p if c < 0 else p
        qh = q**h
        table = []
        k, qk = 1, q
        while qk <= bound:
            if c > 0:
                fs = {geo(qh, r) * geo(qh, k - r) for r in range(k // 2 + 1)}
                table.append((qk, fs, ((p, k),), ()))
            else:
                table.append((qk, (geo(qh, k),), (), ((p, k, q),)))
            k, qk = k + 1, qk * q
        return table

    def hit(N, split, fixed):
        hits.extend(_elements(rg, split, fixed, _choices(N, split, fixed, h, t)))

    def visit(m, s, start, deltas, w, split, fixed):
        # w is at least floor(log_s(cap)) on entry: the parent's value.
        cap = bound // m
        tm = t * m**h
        if tm in deltas:
            hit(m, split, fixed)
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
                    if (c := _CHI[_classify(p, rg)]) > 0:
                        hit(m * p, split + ((p, 1),), fixed)
                    elif c == 0:
                        hit(m * p, split, fixed + ((p, 1, p),))
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
            for qk, fs, sp, fx in table:
                if qk > cap:
                    break
                vs = {v * f for v in deltas for f in fs}
                visit(m * qk, p + 1, j + 1, vs, w, split + sp, fixed + fx)

    # s = 3 keeps 2 out of an odd-norm scan's leaves.
    visit(1, 3 if odd_only else 2, 0, {1}, bound.bit_length(), (), ())
    return hits


def _validate(n: int, t: int, bound: int) -> None:
    if n <= 0 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    if not isinstance(t, int) or t < 2:
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
    hits = _scan(rg, n, t, bound, odd_only)
    hits.sort(key=QuadInt.sort_key)
    factors = [_revalidate(z, n, t) for z in hits]
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
    return SearchReport(
        ring=rg,
        n=n,
        t=t,
        norm_bound=bound,
        hits=hits,
        elements_scanned=_element_count(rg, bound, odd_only),
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
