"""Small balls of the raw-lattice oracle, the norm-first search against
that oracle, frozen search fixtures and the report contract."""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import time
from bisect import bisect_right
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
)
from quadperfect.primes import PrimeClass, _classify, _iroot, is_prime
from quadperfect import search
from quadperfect.search import _element_count, _primes_chi

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
        assert rep.backend == "norm"
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


class TestCountAndWalk:
    """The lattice element count, the walk's prime list, its pruning bound
    and its hits, each against a direct computation."""

    CHI = {PrimeClass.SPLIT: 1, PrimeClass.INERT: -1, PrimeClass.RAMIFIED: 0}

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

    def test_primes_chi(self, rg):
        for r in [*range(1, 201), 10001]:
            expect = [
                (p, self.CHI[_classify(p, rg)])
                for p in range(2, r + 1)
                if is_prime(p)
            ]
            assert _primes_chi(rg, r) == expect, r

    def test_pruning_bound(self, rg):
        # An element y of norm 1 < M <= 2000 whose primes are all >= s has
        # 1 < delta(2h, y) / M^h < (s^h / (s^h - 1))^w for w = floor(log_s(M)),
        # the least w that any cap >= M gives.
        for z, *deltas in delta_table(rg.d):
            M = z.norm()
            if not 1 < M <= 2000:
                continue
            least = next(p for p in range(2, M + 1) if M % p == 0)
            for h, dv in zip((1, 2), deltas):
                assert dv > M**h, z
                for s in range(2, min(30, least) + 1):
                    w = 0
                    while s ** (w + 1) <= M:
                        w += 1
                    assert dv * (s**h - 1) ** w < M**h * s ** (h * w), (z, s, h)

    def test_hits_of_norm(self, rg):
        # No element has a norm N <= 3000 outside the table.  The t = 1 there
        # is the hardest case: a builder that skipped an odd inert exponent
        # would return the z of norm N / p with index p, such as 30 for
        # N = 1800 in d = -19.
        table = delta_table(rg.d)
        norms = {z.norm() for z, _, _ in table}
        for N in range(1, 3001):
            if N not in norms:
                assert search._hits_of_norm(rg, N, 1, 1) == [], N
        hits = {}
        for z, *deltas in table:
            N = z.norm()
            for h, dv in zip((1, 2), deltas):
                t, rem = divmod(dv, N**h)
                if t >= 2 and not rem:
                    hits.setdefault((N, h, t), []).append(z)
        for (N, h, t), zs in hits.items():
            got = sorted(search._hits_of_norm(rg, N, h, t), key=QuadInt.sort_key)
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


def walk_grid() -> list[dict]:
    """Each ring's search_perfect at seven (n, t) and search_odd_norm, at
    three bounds: per case the elements scanned and the hits' (a, b)."""
    cases = []
    for d in ALL_D:
        rg = Ring(d)
        for bound in (3000, 3 * 10**4, 3 * 10**5):
            runs = [
                (n, t, False, search_perfect(rg, n, t, bound))
                for n, t in [(2, 2), (2, 3), (2, 4), (2, 5), (4, 2), (4, 3), (6, 2)]
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


def run_fresh(d: int, bound: int) -> tuple[int, set[int], int]:
    """search_perfect(Ring(d), 2, 2, bound) in a fresh interpreter: the
    elements scanned, the hit norms and the child's peak RSS in KiB.

    The peak is VmHWM, not ru_maxrss: Linux carries the ru_maxrss of the
    process that forks the child across exec, so a child of the test
    runner reports at least the runner's own peak."""
    code = (
        "from quadperfect import Ring, search_perfect\n"
        f"rep = search_perfect(Ring({d}), 2, 2, {bound})\n"
        "print(rep.elements_scanned, *sorted(z.norm() for z in rep.hits))\n"
        "print(next(s for s in open('/proc/self/status') if 'VmHWM' in s))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    ).stdout.split("\n")
    scanned, *norms = map(int, out[0].split())
    return scanned, set(norms), int(out[1].split()[1])


def test_search_1e8_fresh_process():
    # Memory is O(sqrt(bound)): no table of the integers up to the bound.
    scanned, norms, peak = run_fresh(-7, 10**8)
    assert scanned == 118741113
    assert norms == {28, 8128, 33550336}
    assert peak < 64 * 1024


def test_search_1e10_fresh_process():
    # The count is closed-form and the walk is pruned, so 10^10, the CLI's
    # guard, is in reach in a small process.
    scanned, norms, peak = run_fresh(-7, 10**10)
    assert scanned == 11874103774
    assert norms == {28, 8128, 33550336}
    assert peak < 32 * 1024


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

    def test_inert_rings_allowed(self):
        # The odd-norm scan runs in every ring, not just the three with a
        # norm-2 prime.
        rep = search_odd_norm(Ring(-19), 3000)
        assert rep.hits == []


if __name__ == "__main__":
    print("[")
    print(",\n".join(json.dumps(case) for case in walk_grid()))
    print("]")
