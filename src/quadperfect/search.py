"""Norm-bounded exhaustive search for n-powerfully t-perfect elements.

The search runs over norms, not lattice points.  A smallest-prime-factor
sieve up to the bound factors every N; N is a norm exactly when each inert
prime divides it to an even power, and the canonical elements of norm N
match one-to-one the ways to share each split exponent e between the two
conjugate primes above p as (r, e - r).  Because delta(n, z) is a product of
geometric sums over z's prime factorization, each choice's delta follows
from (r, e - r) and the ramified and inert exponents alone, in exact integer
arithmetic for any positive even n and any t.  Elements are built only for
the choices that hit, and every hit is re-validated through the naive
divisor sum before it is reported.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from dataclasses import dataclass, field

from .divisor_functions import NAIVE_NORM_CAP, delta, delta_naive
from .primes import PrimeClass, _classify, _primes_above
from .rings import QuadInt, Ring

# Slice width for the sieve's writes, so no temporary outgrows this many entries.
_SIEVE_CHUNK = 1 << 16


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


def _spf_sieve(bound: int) -> array:
    """spf[m] is the smallest prime factor of composite m <= bound and 0
    for primes (and for 0 and 1); 4 bytes per entry."""
    spf = array("I", [0]) * (bound + 1)
    root = math.isqrt(bound)
    is_p = bytearray([1]) * (root + 1)
    is_p[:2] = b"\0\0"
    for p in range(2, math.isqrt(root) + 1):
        if is_p[p]:
            is_p[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    # Larger primes first, so each smaller prime overwrites its multiples.
    for p in range(root, 1, -1):
        if not is_p[p]:
            continue
        fill = array("I", [p]) * _SIEVE_CHUNK
        step = p * _SIEVE_CHUNK
        for lo in range(p * p, bound + 1, step):
            hi = min(lo + step, bound + 1)
            spf[lo:hi:p] = fill[: len(range(lo, hi, p))]
    return spf


# Class codes for the per-scan table of prime classes; 0 means not yet seen.
_SPLIT, _INERT, _RAMIFIED = 1, 2, 3
_CODE = {
    PrimeClass.SPLIT: _SPLIT,
    PrimeClass.INERT: _INERT,
    PrimeClass.RAMIFIED: _RAMIFIED,
}


def _norms(d: int, bound: int, odd_only: bool):
    """(N, split, fixed) for every norm N <= bound of some element of ring d.

    split lists (p, e) for the split primes dividing N.  fixed lists
    (p, k, q) for the others: the prime above p occurs to the power k and
    has norm q (q = p when ramified, q = p^2 and k = e/2 when inert)."""
    spf = _spf_sieve(bound)
    # A table local to the scan, not _classify's cache, which would keep
    # every prime up to the bound for the life of the process.
    kinds = bytearray(bound + 1)
    for N in range(1, bound + 1, 2 if odd_only else 1):
        split = []
        fixed = []
        m = N
        while m > 1:
            p = spf[m] or m
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            kind = kinds[p]
            if not kind:
                kind = kinds[p] = _CODE[_classify.__wrapped__(p, d)]
            if kind == _SPLIT:
                split.append((p, e))
            elif kind == _INERT:
                if e % 2:
                    break
                fixed.append((p, e // 2, p * p))
            else:
                fixed.append((p, e, p))
        else:
            yield N, split, fixed


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


def _geo(q: int, k: int) -> int:
    """1 + q + ... + q^k."""
    return (q ** (k + 1) - 1) // (q - 1)


def _scan(rg: Ring, n: int, t: int, bound: int, odd_only: bool):
    """Hits (unsorted) and the count of elements examined."""
    h = n // 2
    hits = []
    scanned = 0
    for N, split, fixed in _norms(rg.d, bound, odd_only):
        scanned += math.prod([e + 1 for _, e in split])
        fixed_delta = math.prod([_geo(q**h, k) for _, k, q in fixed])
        need, rem = divmod(t * N**h, fixed_delta)
        if rem:
            continue
        # Split prime p contributes geo(p^h, r) * geo(p^h, e - r) to delta;
        # extend the choices prime by prime while the product still divides.
        partial = [((), need)]
        for p, e in split:
            q = p**h
            partial = [
                (rs + (r,), rest // v)
                for rs, rest in partial
                for r in range(e + 1)
                if rest % (v := _geo(q, r) * _geo(q, e - r)) == 0
            ]
        choices = [rs for rs, rest in partial if rest == 1]
        if choices:
            hits += _elements(rg, split, fixed, choices)
    return hits, scanned


def enumerate_canonical(rg: Ring, bound: int):
    """All sector-canonical elements with norm <= bound, in (norm, a, b)
    order."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    for _, split, fixed in _norms(rg.d, bound, False):
        choices = itertools.product(*(range(e + 1) for _, e in split))
        elems = _elements(rg, split, fixed, choices)
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
