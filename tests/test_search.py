"""Small balls of the raw-lattice oracle, the norm-first search against
that oracle, frozen search fixtures and the report contract."""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from quadperfect import (
    QuadInt,
    Ring,
    delta,
    delta_naive,
    is_powerfully_perfect,
    search_odd_norm,
    search_perfect,
    split_prime_pair,
)
from quadperfect.primes import (
    PrimeClass,
    _classify,
    _iroot,
    _norm_primes,
    classify_rational_prime,
    factor_rational,
    is_prime,
)
from quadperfect import divisor_functions, search
from quadperfect.divisor_functions import geo
from quadperfect.search import _element_count

from conftest import ALL_D, NORM2_D, element_count_hyperbola, norm_ball_brute


def normalized_json(report) -> dict:
    obj = report.to_json()
    obj.pop("wall_time_ms")
    return obj


def ball(rg: Ring, bound: int) -> list[QuadInt]:
    """The raw-lattice oracle's canonical elements in (norm, a, b) order."""
    return sorted(norm_ball_brute(rg, bound), key=QuadInt.sort_key)


class TestEnumerate:
    def test_small_fixtures(self):
        r1 = Ring(-1)
        assert ball(r1, 2) == [r1.element(1), r1.element(1, 1)]
        r3 = Ring(-3)
        assert ball(r3, 1) == [r3.one()]
        r7 = Ring(-7)
        # Norm 2 splits, so both conjugate classes appear beside 1.
        assert ball(r7, 2) == [
            r7.element(1),
            r7.element(-1, 1),
            r7.element(0, 1),
        ]


class TestSearchPerfect:
    def test_gauss_bound_100(self):
        rg = Ring(-1)
        rep = search_perfect(rg, 2, 2, 100)
        assert rep.hits == [rg.element(3, 9), rg.element(9, 3)]
        assert all(z.norm() == 90 for z in rep.hits)

    def test_gauss_t3(self):
        rg = Ring(-1)
        rep = search_perfect(rg, 2, 3, 2000)
        assert rg.element(30, 30) in rep.hits

    def test_frozen_gauss_10k(self):
        rg = Ring(-1)
        rep = search_perfect(rg, 2, 2, 10**4)
        assert rep.hits == [rg.element(3, 9), rg.element(9, 3)]
        assert rep.elements_scanned == 7854

    def test_frozen_d11_10k(self):
        rg = Ring(-11)
        rep = search_perfect(rg, 2, 2, 10**4)
        assert rep.hits == [
            rg.element(-8, 2),
            rg.element(-6, 4),
            rg.element(2, 4),
            rg.element(6, 2),
        ]
        assert all(z.norm() == 60 for z in rep.hits)
        assert rep.elements_scanned == 9478

    @pytest.mark.parametrize(
        "d,scanned,norms", [(-1, 785387, {90}), (-7, 1187379, {28, 8128})]
    )
    def test_frozen_1e6(self, d, scanned, norms):
        rep = search_perfect(Ring(d), 2, 2, 10**6)
        assert rep.elements_scanned == scanned
        assert {z.norm() for z in rep.hits} == norms

    def test_inert_two_rings_empty_small(self):
        for d in (-163, -67, -43):
            rep = search_perfect(Ring(d), 2, 2, 3000)
            assert rep.hits == []

    def test_hits_satisfy_predicate_and_sector(self):
        rep = search_perfect(Ring(-7), 2, 2, 10**4)
        assert len(rep.hits) == 6
        for z in rep.hits:
            assert z.in_fundamental_sector()
            assert is_powerfully_perfect(2, 2, z)

    def test_conjugation_closure(self):
        for d in (-1, -2, -7, -11):
            rep = search_perfect(Ring(d), 2, 2, 10**4)
            hit_set = set(rep.hits)
            assert {z.conjugate().canonical_associate() for z in hit_set} == hit_set

    def test_report_fields(self):
        rg = Ring(-2)
        rep = search_perfect(rg, 2, 2, 500)
        assert rep.ring is rg and rep.n == 2 and rep.t == 2
        assert rep.norm_bound == 500 and not rep.odd_norm
        assert rep.wall_time_ms >= 0
        # backend is a class constant, not a field a caller can set.
        assert rep.backend == "norm" and rep.to_json()["backend"] == "norm"
        with pytest.raises(TypeError):
            search.SearchReport(rg, 2, 2, 500, [], 0, 0, False, [], backend="x")
        obj = rep.to_json()
        assert set(obj) == {
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
        }

    def test_revalidation_ignores_closed_form(self, monkeypatch):
        # A fault shared by the hit builder and the closed form must not pass
        # the revalidation, at any norm.  Here the closed form calls every
        # factorization a hit, and the hit list of norm 2^12 * 8191 =
        # 33550336, above the naive oracle's norm cap, gains the non-hit
        # 2^6 * pi.
        rg, t = Ring(-7), 2

        def every_hit(h, fac):
            return t * math.prod(pi.norm() ** e for pi, e in fac.factors) ** h

        pi = split_prime_pair(8191, rg)[0]
        fake = (rg.element(2) ** 6 * pi).canonical_associate()
        assert fake.norm() == 33550336
        assert delta(2, fake) != t * fake.norm()
        monkeypatch.setattr(divisor_functions, "_geo_product", every_hit)
        monkeypatch.setattr(search, "_geo_product", every_hit, raising=False)
        hits_of_norm = search._hits_of_norm

        def with_fake(rg, N, h, t, primes):
            hits = hits_of_norm(rg, N, h, t, primes)
            return hits + [fake] if N == fake.norm() else hits

        monkeypatch.setattr(search, "_hits_of_norm", with_fake)
        with pytest.raises(AssertionError, match="false hit"):
            search_perfect(rg, 2, t, 4 * 10**7)

    def test_wall_time_covers_count(self, monkeypatch):
        count = search._element_count

        def slow(*args):
            time.sleep(0.05)
            return count(*args)

        monkeypatch.setattr(search, "_element_count", slow)
        assert search_perfect(Ring(-1), 2, 2, 100).wall_time_ms >= 50

    def test_determinism(self):
        a = normalized_json(search_perfect(Ring(-3), 2, 2, 4000))
        b = normalized_json(search_perfect(Ring(-3), 2, 2, 4000))
        assert a == b

    def test_validation(self):
        rg = Ring(-1)
        for n, t, bound in [(3, 2, 10), (0, 2, 10), (-2, 2, 10), (2, 1, 10), (2, 2, 0)]:
            with pytest.raises(ValueError):
                search_perfect(rg, n, t, bound)

    def test_higher_exponent_no_small_hit(self):
        # delta(4, z) = t*N^2 has no small hit.
        rep = search_perfect(Ring(-1), 4, 2, 400)
        assert rep.hits == []


class TestLatticeOracle:
    """The norm-first search against the raw coordinate box reduced to
    canonical associates and filtered by the naive divisor sum."""

    BOUND = 300

    def brute(self, rg, n, t, odd_only):
        """The hits in the ball of radius BOUND and the ball's norms, both
        in (norm, a, b) order."""
        ball = sorted(norm_ball_brute(rg, self.BOUND), key=QuadInt.sort_key)
        if odd_only:
            ball = [z for z in ball if z.norm() % 2]
        hits = [z for z in ball if delta_naive(n, z) == t * z.norm() ** (n // 2)]
        return hits, [z.norm() for z in ball]

    @pytest.mark.parametrize("n,t", [(2, 2), (2, 3), (4, 2), (4, 3)])
    def test_search_perfect(self, rg, n, t):
        rep = search_perfect(rg, n, t, self.BOUND)
        hits, norms = self.brute(rg, n, t, False)
        assert (rep.hits, rep.elements_scanned) == (hits, len(norms))

    def test_search_odd_norm(self, rg):
        rep = search_odd_norm(rg, self.BOUND)
        hits, norms = self.brute(rg, 2, 2, True)
        assert (rep.hits, rep.elements_scanned) == (hits, len(norms))

    @pytest.mark.parametrize("d", [-1, -2, -7, -11])
    @pytest.mark.parametrize(
        "n,t,odd_only", [(2, 2, False), (2, 3, False), (4, 2, False), (2, 2, True)]
    )
    def test_every_bound(self, d, n, t, odd_only):
        # Every bound up to BOUND, so hits at N = bound and norms whose last
        # prime sits on the boundary p^2 = bound / m are all reached.
        rg = Ring(d)
        hits, norms = self.brute(rg, n, t, odd_only)
        for bound in range(1, self.BOUND + 1):
            if odd_only:
                rep = search_odd_norm(rg, bound)
            else:
                rep = search_perfect(rg, n, t, bound)
            assert rep.hits == [z for z in hits if z.norm() <= bound], bound
            assert rep.elements_scanned == bisect_right(norms, bound), bound


@functools.cache
def delta_table(d: int) -> list[tuple[QuadInt, int, int]]:
    """(z, delta(2, z), delta(4, z)) over the raw-lattice ball of norm
    <= 3000, in (norm, a, b) order."""
    return [(z, delta(2, z), delta(4, z)) for z in ball(Ring(d), 3000)]


@functools.cache
def index_norms(d: int, h: int, bound: int) -> dict[tuple[int, int], list[int]]:
    """Each index (a, b), in lowest terms, of an element of norm 1 < N <=
    bound, mapped to the sorted norms that carry it.  A norm's delta values
    are built prime by prime over a smallest-prime-factor sieve, from the
    local factors _hits_of_norm uses: the set of geo(q, r) * geo(q, e - r)
    at a split p^e with q = p^h, geo(p^h, e) at a ramified p^e and
    geo(p^2h, e / 2) at an inert p^e, e even (no norm otherwise)."""
    rg = Ring(d)
    spf = list(range(bound + 1))
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            for k in range(p * p, bound + 1, p):
                if spf[k] == k:
                    spf[k] = p
    sets: list[set[int] | None] = [None, {1}]
    for N in range(2, bound + 1):
        p, e, r = spf[N], 0, N
        while r % p == 0:
            r, e = r // p, e + 1
        c = classify_rational_prime(p, rg)
        if sets[r] is None or (c is PrimeClass.INERT and e % 2):
            sets.append(None)
            continue
        if c is PrimeClass.SPLIT:
            q = p**h
            fs = {geo(q, k) * geo(q, e - k) for k in range(e // 2 + 1)}
        elif c is PrimeClass.RAMIFIED:
            fs = {geo(p**h, e)}
        else:
            fs = {geo(p ** (2 * h), e // 2)}
        sets.append({v * f for v in sets[r] for f in fs})
    out: dict[tuple[int, int], list[int]] = {}
    for N in range(2, bound + 1):
        for v in sets[N] or ():
            g = math.gcd(v, N**h)
            out.setdefault((v // g, N**h // g), []).append(N)
    return out


class TestCountAndWalk:
    """The lattice element count, the walk's pruning bound, its leaves, the
    primes it classifies and its hits, each against a direct computation."""

    @pytest.mark.parametrize("h", [1, 2])
    def test_rational_targets(self, rg, h):
        # The walk's pruning holds for any rational target t >= 1, and
        # rational targets hit far more often than integers: per ring and h,
        # 20 indices t = a / b of elements of norm <= bound, drawn with seed
        # 1600 * h - d, each scanned in full and over odd norms at 3000 and
        # 3 * 10^4.  The walk must return exactly the norms carrying t.
        table = index_norms(rg.d, h, 3 * 10**4)
        rnd = random.Random(1600 * h - rg.d)
        for bound in (3000, 3 * 10**4):
            keys = sorted(k for k, norms in table.items() if norms[0] <= bound)
            for a, b in rnd.sample(keys, 20):
                t = a if b == 1 else Fraction(a, b)
                for odd_only in (False, True):
                    got = sorted(search._scan(rg, 2 * h, t, bound, odd_only))
                    want = [
                        N
                        for N in table[a, b]
                        if N <= bound and (N % 2 or not odd_only)
                    ]
                    assert got == want, (t, bound, odd_only)

    def test_element_count(self, rg):
        norms = [z.norm() for z, _, _ in delta_table(rg.d)]
        odd = [N for N in norms if N % 2]
        for bound in [*range(1, 401), 2999, 3000]:
            full, odd_count = bisect_right(norms, bound), bisect_right(odd, bound)
            assert _element_count(rg, bound) == full, bound
            assert search_odd_norm(rg, bound).elements_scanned == odd_count, bound
            assert element_count_hyperbola(rg, bound, False) == full, bound
            assert element_count_hyperbola(rg, bound, True) == odd_count, bound

    def test_element_count_matches_hyperbola(self, rg):
        # Seeded bounds at every size up to 10^12; the odd scans stop at
        # 10^10, where the walk is still quick.
        rnd = random.Random(1300 - rg.d)
        for k in range(3, 13):
            bound = rnd.randrange(10 ** (k - 1), 10**k)
            assert _element_count(rg, bound) == element_count_hyperbola(
                rg, bound, False
            ), bound
            if k <= 10:
                odd = search_odd_norm(rg, bound).elements_scanned
                assert odd == element_count_hyperbola(rg, bound, True), bound

    def test_pruning_bound(self, rg):
        # An element y of norm 1 < M <= 2000 whose primes are all >= s has
        # 1 < delta(2h, y) / M^h < (s^h / (s^h - 1))^w for w = floor(log_s(M)),
        # the least w that any cap >= M gives.  The denominator b of that
        # index divides M^h and, as the walk tests it by a gcd with the
        # product of the primes below s, has no prime below s.
        primes = [p for p in range(2, 2001) if is_prime(p)]
        for z, *deltas in delta_table(rg.d):
            M = z.norm()
            if not 1 < M <= 2000:
                continue
            least = next(p for p in primes if M % p == 0)
            for h, dv in zip((1, 2), deltas):
                assert dv > M**h, z
                for s in range(2, min(30, least) + 1):
                    w = 0
                    while s ** (w + 1) <= M:
                        w += 1
                    assert dv * (s**h - 1) ** w < M**h * s ** (h * w), (z, s, h)
                b = Fraction(dv, M**h).denominator
                assert M**h % b == 0, (z, h)
                below = 1
                for s in primes[: primes.index(least) + 1]:
                    assert math.gcd(b, below) == 1, (z, s, h)
                    below *= s

    def test_scan_returns_norms(self, rg):
        # An inert leaf prime p makes m * p no norm; the walk skips it.
        for n, t in GRID_NT:
            for N in search._scan(rg, n, t, 3 * 10**4, False):
                odd_inert = [
                    p
                    for p, e in factor_rational(N)
                    if e % 2 and classify_rational_prime(p, rg) is PrimeClass.INERT
                ]
                assert not odd_inert, (n, t, N)

    def test_primes_found_on_demand(self, monkeypatch):
        # The walk for n = 4 opens only the primes up to 7, so it classifies
        # a handful of primes, not every prime up to sqrt(bound).
        calls = []

        def counting(p, rg):
            calls.append(p)
            return _classify(p, rg)

        monkeypatch.setattr(search, "_classify", counting)
        assert search._scan(Ring(-7), 4, 2, 10**12, False) == []
        assert len(calls) < 100

    def test_denominator_rules_prune(self, monkeypatch):
        # Rules (a) and (c) of the denominator lemma cut the delta values
        # that reach the leaf test's integer root; rule (b) ends child loops
        # early, so the walk classifies fewer primes.  At 10^12 the walk
        # takes 21-22 roots and 1036 classifications in each ring here;
        # without (a) it takes 40-41 roots, without (c) 28-59 and without
        # (b) 1824 classifications, as it did before the lemma.
        roots, classes = [], []

        def counting_root(x, k):
            roots.append(x)
            return _iroot(x, k)

        def counting_class(p, rg):
            classes.append(p)
            return _classify(p, rg)

        monkeypatch.setattr(search, "_iroot", counting_root)
        monkeypatch.setattr(search, "_classify", counting_class)
        for d in NORM2_D:
            roots.clear()
            classes.clear()
            search._scan(Ring(d), 2, 2, 10**12, False)
            assert len(roots) <= 25, d
            assert len(classes) < 1200, d

    def test_primality_only_at_leaves(self, monkeypatch):
        # The walk reads its primes from the shared sieve, so is_prime runs
        # only in the leaf test, on an integer root, at most once per root.
        roots, tested = [], []

        def counting_root(x, k):
            roots.append(r := _iroot(x, k))
            return r

        def counting_prime(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(search, "_iroot", counting_root)
        monkeypatch.setattr(search, "is_prime", counting_prime)
        found = search._scan(Ring(-7), 2, 2, 10**12, False)
        assert sorted(found) == [28, 8128, 33550336, 137438691328]
        assert tested and not Counter(tested) - Counter(roots)

    def test_two_threads_share_the_sieve(self, monkeypatch):
        # Two walks that extend the shared prime list at once find what each
        # finds alone, and leave the list the primes from 2, each once; a
        # repeat would make a walk take p * p for two primes.
        from quadperfect import primes

        ds, bound = (-1, -7), 10**14

        def walk(d):
            return sorted(search._scan(Ring(d), 2, 2, bound, False))

        alone = [walk(d) for d in ds]
        interval = sys.getswitchinterval()
        # Switching threads often, and starting from an empty list a few
        # times, makes the two walks extend the list at once.
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                monkeypatch.setattr(primes, "_primes", [])
                monkeypatch.setattr(primes, "_blocks", [])
                with ThreadPoolExecutor(2) as pool:
                    assert list(pool.map(walk, ds, timeout=60)) == alone
                ps = primes._primes
                assert ps == [n for n in range(2, ps[-1] + 1) if is_prime(n)]
        finally:
            sys.setswitchinterval(interval)

    def test_leaf_classifies_before_primality(self, monkeypatch):
        # The leaf test skips an inert p before is_prime, so a probable
        # prime past the witness limit raises only where it could be a leaf.
        # With the limit at 10^5, 131071 = 2^17 - 1, inert in d = -7, meets
        # the leaf test at m = 2^16 and would raise TooLarge.
        from quadperfect import primes

        monkeypatch.setattr(primes, "_MR_LIMIT", 10**5)
        found = search._scan(Ring(-7), 2, 2, 2**16 * (2**17 - 1), False)
        assert sorted(found) == [28, 8128, 33550336]

    def test_nodes_opened_have_work(self):
        # A parent opens a child only when one of its values passes v < t *
        # m^h, (a) and (c), so no node is opened to do nothing: at 10^12 the
        # walk makes 90, 64 and 77 calls to visit here, against 633, 491 and
        # 510 when each node filtered its own values on entry.
        calls = 0
        path = search._scan.__code__.co_filename

        def profile(frame, event, arg):
            nonlocal calls
            if (
                event == "call"
                and frame.f_code.co_name == "visit"
                and frame.f_code.co_filename == path
            ):
                calls += 1

        for d in NORM2_D:
            calls = 0
            sys.setprofile(profile)
            try:
                search._scan(Ring(d), 2, 2, 10**12, False)
            finally:
                sys.setprofile(None)
            assert calls <= 100, d

    def test_hits_of_norm(self, rg):
        # No element has a norm N <= 3000 outside the table.  The t = 1 there
        # is the hardest case: a builder that skipped an odd inert exponent
        # would return the z of norm N / p with index p, such as 30 for
        # N = 1800 in d = -19.
        table = delta_table(rg.d)
        norms = {z.norm() for z, _, _ in table}
        for N in range(1, 3001):
            if N not in norms:
                primes = _norm_primes(N, rg)
                assert search._hits_of_norm(rg, N, 1, 1, primes) == [], N
        hits = {}
        for z, *deltas in table:
            N = z.norm()
            for h, dv in zip((1, 2), deltas):
                t, rem = divmod(dv, N**h)
                if t >= 2 and not rem:
                    hits.setdefault((N, h, t), []).append(z)
        for (N, h, t), zs in hits.items():
            primes = _norm_primes(N, rg)
            got = search._hits_of_norm(rg, N, h, t, primes)
            got.sort(key=QuadInt.sort_key)
            assert got == zs, (N, h, t)

    @pytest.mark.parametrize(
        "n,t,odd_only",
        [(2, 2, False), (2, 3, False), (2, 4, False), (4, 2, False), (2, 2, True)],
    )
    def test_hits_at_3000(self, rg, n, t, odd_only):
        hits = [
            z
            for z, *deltas in delta_table(rg.d)
            if deltas[n // 2 - 1] == t * z.norm() ** (n // 2)
            and (z.norm() % 2 or not odd_only)
        ]
        if odd_only:
            rep = search_odd_norm(rg, 3000)
        else:
            rep = search_perfect(rg, n, t, 3000)
        assert rep.hits == hits


WALK_GRID = Path(__file__).with_name("walk_grid.json")
GRID_NT = [(2, 2), (2, 3), (2, 4), (2, 5), (4, 2), (4, 3), (6, 2)]


def walk_grid() -> list[dict]:
    """Each ring's search_perfect at seven (n, t) and search_odd_norm, at
    three bounds: per case the elements scanned and the hits' (a, b)."""
    cases = []
    for d in ALL_D:
        rg = Ring(d)
        for bound in (3000, 3 * 10**4, 3 * 10**5):
            runs = [
                (n, t, False, search_perfect(rg, n, t, bound))
                for n, t in GRID_NT
            ]
            runs.append((2, 2, True, search_odd_norm(rg, bound)))
            cases += [
                {
                    "d": d,
                    "n": n,
                    "t": t,
                    "bound": bound,
                    "odd_norm": odd,
                    "elements_scanned": rep.elements_scanned,
                    "hits": [[z.a, z.b] for z in rep.hits],
                }
                for n, t, odd, rep in runs
            ]
    return cases


def test_walk_grid():
    # Written by PYTHONPATH=src python3 tests/test_search.py > tests/walk_grid.json
    # from the repository root; no change to the walk or the count may alter it.
    assert walk_grid() == json.loads(WALK_GRID.read_text())


FRESH_SRC = Path(__file__).resolve().parent.parent / "src"
# A child that compiles the package holds the compiler's memory at its peak,
# so no child is told not to write bytecode, and fresh_lines writes the
# cache once before its first child.
FRESH_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONPATH": str(FRESH_SRC),
}


@functools.cache
def write_bytecode_cache() -> None:
    code = "import quadperfect, quadperfect.search, quadperfect.cli"
    subprocess.run([sys.executable, "-c", code], env=FRESH_ENV, check=True)


def fresh_lines(code: str, timeout: float | None = None) -> list[str]:
    """The lines code prints in a fresh interpreter with src on the path,
    then one more: that process's peak RSS in KiB.  The run fails after
    timeout seconds, if given.

    The peak is VmHWM, not ru_maxrss: Linux carries the ru_maxrss of the
    process that forks the child across exec, so a child of the test
    runner reports at least the runner's own peak."""
    code += (
        "print(next(s for s in open('/proc/self/status')"
        " if 'VmHWM' in s).split()[1])\n"
    )
    write_bytecode_cache()
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=FRESH_ENV,
        check=True,
        timeout=timeout,
    ).stdout.splitlines()


def run_fresh(d: int, bound: int) -> tuple[int, set[int], int]:
    """search_perfect(Ring(d), 2, 2, bound) in a fresh interpreter: the
    elements scanned, the hit norms and the child's peak RSS in KiB."""
    out, peak = fresh_lines(
        "from quadperfect import Ring, search_perfect\n"
        f"rep = search_perfect(Ring({d}), 2, 2, {bound})\n"
        "print(rep.elements_scanned, *sorted(z.norm() for z in rep.hits))\n"
    )
    scanned, *norms = map(int, out.split())
    return scanned, set(norms), int(peak)


@pytest.mark.parametrize(
    "bound,scanned,norms,peak_mib",
    [
        (10**8, 118741113, {28, 8128, 33550336}, 64),
        (10**10, 11874103774, {28, 8128, 33550336}, 32),
        (2 * 10**11, 237482082225, {28, 8128, 33550336, 137438691328}, 32),
    ],
    ids=["1e8", "1e10", "2e11"],
)
def test_search_fresh_process(bound, scanned, norms, peak_mib):
    # The count takes O(sqrt(bound)) steps in O(1) memory, and the pruned
    # walk holds only the primes it reaches, so 10^10, the CLI's guard, and
    # 2 * 10^11, which holds the hit norm 2^18 (2^19 - 1), run in a small
    # process.
    got_scanned, got_norms, peak = run_fresh(-7, bound)
    assert (got_scanned, got_norms) == (scanned, norms)
    assert peak < peak_mib * 1024


def test_scan_memory_fresh_process():
    # Rule (c) keeps one product of the primes below s per node on the
    # current path, not one per prefix of the prime list, and the walk keeps
    # no steps per prime, only the prime and its class, so the walk at
    # 10^16 runs in a small process.
    (peak,) = fresh_lines(
        "from quadperfect import Ring\n"
        "from quadperfect.search import _scan\n"
        "_scan(Ring(-2), 2, 2, 10**16, False)\n"
    )
    assert int(peak) < 24 * 1024


def test_large_n_fresh_process():
    # A child loop builds the geometric sums of p's steps only up to
    # bound // m, one multiplication each, so a huge n costs no more than
    # the few nodes that the magnitude test lets open.
    out, _ = fresh_lines(
        "from quadperfect import Ring, search_perfect\n"
        "print(len(search_perfect(Ring(-7), 10**6, 2, 1000).hits))\n",
        timeout=10,
    )
    assert out == "0"


@pytest.mark.parametrize("d,scanned", [(-1, 787), (-7, 1184)])
def test_huge_n_fresh_process(d, scanned):
    # The root's bit-length test prunes before any power of 2^h is built;
    # the magnitude test alone builds 2^(h * w) with h = 5 * 10^6.
    out, _ = fresh_lines(
        "from quadperfect import Ring, search_perfect\n"
        f"rep = search_perfect(Ring({d}), 10**7, 2, 1000)\n"
        "print(len(rep.hits), rep.elements_scanned)\n",
        timeout=5,
    )
    assert out == f"0 {scanned}"


def test_share_index_grows_with_k():
    # The walk's k-loop breaks once every value of the child m * q^k has
    # reached t * (m * q^k)^h; that needs the least index of a share of q^k,
    # min over r of g_r * g_(k-r) / q^(hk) for a split prime and g_k /
    # q^(hk) otherwise, to grow strictly with k.
    for q in range(2, 50):
        if not is_prime(q):
            continue
        for h in (1, 2, 3):
            g = [geo(q**h, k) for k in range(9)]
            split = [
                Fraction(min(g[r] * g[k - r] for r in range(k + 1)), q ** (h * k))
                for k in range(9)
            ]
            other = [Fraction(g[k], q ** (h * k)) for k in range(9)]
            for seq in (split, other):
                assert all(x < y for x, y in zip(seq, seq[1:])), (q, h, seq)


def test_iroot():
    for k in range(1, 6):
        for x in [*range(1, 3000), 10**60 - 1, 10**60, 10**60 + 1]:
            r = _iroot(x, k)
            assert r**k <= x < (r + 1) ** k, (x, k)


class TestOddNormScan:
    def test_zero_hits_small(self):
        for d in NORM2_D:
            rep = search_odd_norm(Ring(d), 10**4)
            assert rep.odd_norm
            assert rep.hits == []
            assert rep.hit_checks == []

    @pytest.mark.parametrize("d,scanned", [(-1, 3926990754), (-7, 2968526096)])
    def test_frozen_1e10(self, d, scanned):
        rep = search_odd_norm(Ring(d), 10**10)
        assert rep.elements_scanned == scanned
        assert rep.hits == []

    def test_scanned_counts_only_odd_norms(self):
        rg = Ring(-1)
        rep = search_odd_norm(rg, 2000)
        odd = sum(1 for z in ball(rg, 2000) if z.norm() % 2)
        assert rep.elements_scanned == odd

    def test_hit_runs_checks(self, forced_odd_hit):
        # Each hit gets the structure and prime-count verifiers, in order.
        # z = 2 + w is one prime, so its shape passes and its count of 1
        # fails the floor of 5.
        rep = search_odd_norm(Ring(-1), 100)
        assert rep.hits == [forced_odd_hit]
        [[shape, count]] = rep.hit_checks
        assert (shape.theorem, count.theorem) == ("2.5", "count")
        assert shape.subject == forced_odd_hit == count.subject
        assert shape.overall and not count.overall

    def test_inert_rings_allowed(self):
        # The odd-norm scan runs in every ring, not just the three with a
        # norm-2 prime.
        rep = search_odd_norm(Ring(-19), 3000)
        assert rep.hits == []


if __name__ == "__main__":
    print("[")
    print(",\n".join(json.dumps(case) for case in walk_grid()))
    print("]")
