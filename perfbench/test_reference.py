"""Quick checks of the reference arithmetic against hand-computed values.

Run with: python3 -m pytest -q perfbench/test_reference.py
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def test_gaussian_worked_example():
    # 9 + 3i = -i (1+i)(1+2i) 3; divisor classes have the norms below.
    z = ref.to_uv(-1, 9, 3)
    assert [m for m, _ in ref.divisor_classes(-1, z)] == [1, 2, 5, 9, 10, 18, 45, 90]
    assert ref.sigma2(-1, z) == 180
    assert ref.index2(-1, z) == Fraction(2)


def test_coordinates_round_trip():
    for d in (-1, -2, -3, -7, -163):
        for a, b in ((3, 0), (-2, 5), (7, -4)):
            assert ref.from_uv(d, ref.to_uv(d, a, b)) == (a, b)
    # w^2 = w - 2 in d = -7: (0 + 1w)^2 = -2 + 1w.
    w = ref.to_uv(-7, 0, 1)
    assert ref.from_uv(-7, ref.mul(-7, w, w)) == (-2, 1)


def test_units():
    assert len(ref.units(-1)) == 4
    assert len(ref.units(-3)) == 6
    assert len(ref.units(-7)) == 2


def test_lattice_counts():
    # Z[i], norms <= 10: 1, 2, 4, 5, 5, 8, 9, 10, 10 -> 9 classes, of
    # which norms 1, 5, 5, 9 are odd.
    assert ref.count_canonical(-1, 10) == 9
    assert ref.count_canonical(-1, 10, odd=True) == 4
    # Z[sqrt -2], norms <= 6: 1, 2, 3, 3, 4, 6, 6 -> 7 classes.
    assert ref.count_canonical(-2, 6) == 7


def test_classification():
    assert ref.classify(-1, 2) == "ramified"
    assert ref.classify(-1, 3) == "inert"
    assert ref.classify(-1, 5) == "split"
    assert ref.classify(-7, 2) == "split"
    assert ref.classify(-7, 7) == "ramified"
    assert ref.classify(-11, 2) == "inert"
    assert ref.classify(-3, 7) == "split"


def test_tonelli_shanks_and_cornacchia():
    assert ref.sqrt_mod(10, 13) in (6, 7)
    assert ref.sqrt_mod(2, 13) is None
    assert ref.cornacchia(-1, 13) in ((6, 4), (4, 6))  # 13 = 3^2 + 2^2
    assert ref.norm(-7, ref.cornacchia(-7, 11)) == 11
    p = 100000000003  # prime, 3 mod 4 so inert in Z[i] but split in d = -2
    assert ref.is_prime(p)
    assert ref.classify(-1, p) == "inert"
    assert ref.norm(-2, ref.cornacchia(-2, p)) == p


def test_perfect_search_and_decomposition():
    # The two 2-perfect classes of Z[i] below norm 100 are 9+3i and 3+9i.
    expect = {ref.class_key(-1, ref.to_uv(-1, a, b)) for a, b in ((9, 3), (3, 9))}
    assert ref.brute_hits(-1, 2, 100) == expect
    # d = -11 has four 2-perfect classes of norm 60 below 100.
    hits = ref.brute_hits(-11, 2, 100)
    assert len(hits) == 4 and {ref.norm(-11, h) for h in hits} == {60}
    dec = ref.decompose_even(-1, ref.to_uv(-1, 3, 9))
    assert (dec["gamma"], dec["q"], dec["m"], dec["k"], dec["v"]) == (1, 3, 15, 1, 5)


def test_factorization():
    z = ref.to_uv(-1, 9, 3)
    fac = ref.factorization(-1, z)
    assert [(n, e) for n, _, e in fac] == [(2, 1), (5, 1), (9, 1)]
