"""Acceptance gate: eleven numbered criteria, each printing one visible
[PASS]/[FAIL] line with its measured time.

All arithmetic is exact, so every comparison is equality — no tolerances.
Criterion 10 is expected to fail: the bound-10^4 scans in d=-2 and d=-7
find even-norm perfect elements (norms 6, 28, 8128) whose decompositions
have k=0, so the all-k-equal-1 claim is falsified by the instrument built
to check it.  The test prints the honest [FAIL] line with the witnesses
and is marked xfail; the analysis lives in the project notes.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from quadperfect import (
    PrimeClass,
    Ring,
    abundancy_index,
    check_structure_bounds,
    classify_rational_prime,
    conjecture_scan,
    decompose_even,
    delta,
    delta_naive,
    divisors,
    int_valuation,
    is_powerfully_perfect,
    is_prime,
    norm2_prime,
    search_odd_norm,
    search_perfect,
    smallest_odd_prime_norms,
    valuation,
)

from conftest import ALL_D, NORM2_D, norm_ball_brute, random_elements


def announce(capsys, num, passed, detail, ms=None):
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {num:>2}: {detail}"
    if ms is not None:
        line += f"  ({ms:.1f} ms)"
    with capsys.disabled():
        print(line)
    return passed


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - start) * 1000.0


def test_criterion_01_worked_example(capsys):
    rg = Ring(-1)
    z = rg.element(9, 3)

    def body():
        return (
            delta(2, z),
            abundancy_index(2, z),
            sorted(x.norm() for x in divisors(z)),
        )

    body()  # warm the small-prime caches; then time the arithmetic itself
    best = math.inf
    for _ in range(3):
        (d2, idx, norms), ms = timed(body)
        best = min(best, ms)
    ok = d2 == 180 and idx == 2 and norms == [1, 2, 5, 9, 10, 18, 45, 90]
    ok = ok and best < 1.0
    assert announce(
        capsys, 1, ok, "delta2(9+3i) = 180, index 2, divisor norms exact", best
    )


def test_criterion_02_perfect_fixtures(capsys):
    rg = Ring(-1)
    cases = [((3, 9), 2), ((30, 30), 3), ((84, 4788), 3), ((1764, 4452), 3)]

    def body():
        return [abundancy_index(2, rg.element(a, b)) for (a, b), _ in cases]

    body()
    (values, ms) = timed(body)
    ok = values == [t for _, t in cases] and ms < 10.0
    assert announce(
        capsys, 2, ok, "index2 of 3+9i, 30+30i, 84+4788i, 1764+4452i = 2,3,3,3", ms
    )


def test_criterion_03_decomposition_equalities(capsys):
    dec, ms = timed(lambda: decompose_even(Ring(-1).element(3, 9)))
    ok = (dec.gamma, dec.q, dec.m, dec.k, dec.v) == (1, 3, 15, 1, 5)
    rep = check_structure_bounds(dec)
    ok = ok and rep.overall
    # The bounds are attained with equality on this fixture.
    ok = ok and dec.v == dec.q + 2 and dec.m == dec.q**2 + dec.q + 3
    assert announce(
        capsys, 3, ok, "3+9i decomposes to gamma=1 q=3 m=15 k=1 v=5, bounds tight", ms
    )


def test_criterion_04_oracle_equivalence(capsys):
    def body():
        checked = 0
        for d in ALL_D:
            for z in norm_ball_brute(Ring(d), 300):
                assert delta(2, z) == delta_naive(2, z), z
                assert abundancy_index(2, z) == delta(-2, z), z
                checked += 1
        return checked

    checked, ms = timed(body)
    ok = checked > 1500 and ms < 60_000
    assert announce(
        capsys, 4, ok,
        f"delta == naive oracle and index2 == delta(-2) on {checked} elements, "
        "norms <= 300, all nine rings", ms,
    )


def test_criterion_05_classification_oracle(capsys):
    def body():
        checked = 0
        for d in ALL_D:
            rg = Ring(d)
            for p in range(2, 1000):
                if not is_prime(p):
                    continue
                if p == 2:
                    if d % 4 in (2, 3):
                        expect = PrimeClass.RAMIFIED
                    elif d % 8 == 1:
                        expect = PrimeClass.SPLIT
                    else:
                        expect = PrimeClass.INERT
                else:
                    squares = {x * x % p for x in range(1, p)}
                    if d % p == 0:
                        expect = PrimeClass.RAMIFIED
                    elif d % p in squares:
                        expect = PrimeClass.SPLIT
                    else:
                        expect = PrimeClass.INERT
                assert classify_rational_prime(p, rg) is expect, (p, d)
                checked += 1
        # The norm-2 row specifically: ramified, ramified, split, else inert.
        assert classify_rational_prime(2, Ring(-1)) is PrimeClass.RAMIFIED
        assert classify_rational_prime(2, Ring(-2)) is PrimeClass.RAMIFIED
        assert classify_rational_prime(2, Ring(-7)) is PrimeClass.SPLIT
        return checked

    checked, ms = timed(body)
    assert announce(
        capsys, 5, True,
        f"splitting behavior matches the residue oracle on {checked} "
        "(p, ring) pairs, p < 1000", ms,
    )


def test_criterion_06_even_valuations(capsys):
    def body():
        pairs = 0
        for d in ALL_D:
            rg = Ring(d)
            inert = [
                q
                for q in range(2, 51)
                if is_prime(q)
                and classify_rational_prime(q, rg) is PrimeClass.INERT
            ]
            qelems = {q: rg.element(q) for q in inert}
            for z in random_elements(rg, 10**4, 10**3, seed=5):
                nz = z.norm()
                for q in inert:
                    v = int_valuation(q, nz)
                    assert v % 2 == 0, (z, q)
                    if v:
                        assert valuation(qelems[q], z) * 2 == v, (z, q)
                    pairs += 1
        return pairs

    pairs, ms = timed(body)
    assert announce(
        capsys, 6, True,
        f"nu_q(N(z)) is even and twice the ring valuation on {pairs} "
        "(element, inert q) pairs", ms,
    )


def test_criterion_07_search_completeness(capsys):
    rg = Ring(-1)

    def body():
        rep = search_perfect(rg, 2, 2, 100)
        # Independent completeness check: reduce a raw lattice box.
        brute = sorted(
            (z for z in norm_ball_brute(rg, 100) if is_powerfully_perfect(2, 2, z)),
            key=lambda z: z.sort_key(),
        )
        frozen = search_perfect(rg, 2, 2, 10**4)
        return rep.hits, brute, frozen.hits

    (hits, brute, frozen), ms = timed(body)
    expect = [rg.element(3, 9), rg.element(9, 3)]
    ok = hits == expect and brute == expect and frozen == expect and ms < 5_000
    assert announce(
        capsys, 7, ok,
        "search(d=-1, bound 100) = {3+9i, 9+3i}, equal to the raw-lattice "
        "scan; bound-10^4 list unchanged", ms,
    )


def test_criterion_08_odd_norm_vacuity(capsys):
    def body():
        counts = {}
        for d in NORM2_D:
            rep = search_odd_norm(Ring(d), 10**7)
            counts[d] = (len(rep.hits), rep.elements_scanned)
        # The prime tables behind the minimum-norm argument.
        assert smallest_odd_prime_norms(Ring(-1), 5) == [5, 5, 9, 13, 13]
        assert smallest_odd_prime_norms(Ring(-2), 6) == [3, 3, 11, 11, 17, 17]
        assert smallest_odd_prime_norms(Ring(-7), 11) == [
            7, 9, 11, 11, 23, 23, 25, 29, 29, 37, 37,
        ]
        return counts

    counts, ms = timed(body)
    ok = all(hits == 0 for hits, _ in counts.values()) and ms < 120_000
    scanned = ", ".join(f"d={d}: {n}" for d, (_, n) in sorted(counts.items()))
    assert announce(
        capsys, 8, ok,
        f"no odd-norm perfect element with norm <= 10^7 ({scanned} odd "
        "norms scanned); prime-norm tables verified", ms,
    )


def test_criterion_09_index_property_suite(capsys):
    def body():
        checked = 0
        for d in ALL_D:
            rg = Ring(d)
            sample = random_elements(rg, 10**3, 10**3, seed=9)
            for z in sample:
                idx = abundancy_index(2, z)
                assert isinstance(idx, Fraction)
                assert idx >= 1
                assert (idx == 1) == z.is_unit()
                assert idx == delta(-2, z)
                checked += 1
            # Multiplicativity on coprime-norm pairs from the same sample.
            for x, y in zip(sample[0::2], sample[1::2]):
                if math.gcd(x.norm(), y.norm()) != 1:
                    continue
                assert abundancy_index(2, x * y) == abundancy_index(
                    2, x
                ) * abundancy_index(2, y)
            # Divisor monotonicity with equality exactly on associates.
            for z in sample[:40]:
                idx = abundancy_index(2, z)
                for x in divisors(z):
                    sub = abundancy_index(2, x)
                    assert sub <= idx
                    assert (sub == idx) == x.is_associated(z)
        return checked

    checked, ms = timed(body)
    assert announce(
        capsys, 9, True,
        f"index range, multiplicativity, duality and divisor monotonicity "
        f"on {checked} random elements across the nine rings", ms,
    )


def test_criterion_10_all_k_equal_one(capsys):
    def body():
        return {d: conjecture_scan(Ring(d), 10**4) for d in NORM2_D}

    reports, ms = timed(body)
    ok = all(rep.overall for rep in reports.values())
    witnesses = [
        f"d={d} {c.name}={c.actual}"
        for d, rep in sorted(reports.items())
        for c in rep.checks
        if not c.passed
    ]
    detail = "k = 1 for every even-norm hit, bound 10^4, d in {-1, -2, -7}"
    if not ok:
        detail += " -- counterexamples: " + "; ".join(witnesses)
    announce(capsys, 10, ok, detail, ms)
    if not ok:
        pytest.xfail(
            "genuine k=0 hits at norms 6, 28, 8128 (odd cofactor is a single "
            "prime of norm q, so m=1); see the project notes ledger"
        )
    assert ok


def test_criterion_11_lift_identity(capsys):
    def body():
        cases = 0
        samples = {
            -1: [(2, 1), (3, 2), (4, 1)],
            -2: [(1, 1), (1, 2), (3, 2)],
            -7: [(1, 2), (3, 2), (1, 4)],
        }
        for d, coords in samples.items():
            rg = Ring(d)
            xi = norm2_prime(rg)
            # Single factors, pairs and the triple product.
            elems = [rg.element(a, b) for a, b in coords]
            products = elems + [
                elems[0] * elems[1],
                elems[1] * elems[2],
                elems[0] * elems[1] * elems[2],
            ]
            for z in products:
                assert z.norm() % 2 == 1, z
                assert abundancy_index(2, xi * z) == Fraction(3, 2) * abundancy_index(
                    2, z
                )
                cases += 1
        return cases

    cases, ms = timed(body)
    assert announce(
        capsys, 11, True,
        f"index2(xi * z) = (3/2) index2(z) exactly on {cases} odd-norm "
        "split-prime products", ms,
    )
