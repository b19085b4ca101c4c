#!/usr/bin/env python3
"""Compare factoring between two source trees on seeded inputs.

    python3 tools/factor_diff.py --base ../parent --change . --seed 23 --count 4000
    python3 tools/factor_diff.py --base ../parent --change . --seed 23 --count 4000 --elements

Loads BASE/src/quadperfect as qp_base and CHANGE/src/quadperfect as
qp_change in this one process, as tools/inproc_ab.py does, and gives both
the same inputs.  random.Random(SEED) draws COUNT inputs, taking four kinds
in turn.  By default they are integers for factor_rational:

  0. a smooth number: 0-8 draws from the first 60 primes;
  1. a smooth number times one or two primes within 200 of 10^6;
  2. a smooth number times r^e, e in 2..5, with r an integer in [2, 10^4],
     a near-10^6 prime times one of the first 20 primes, or a product of
     two near-10^6 primes;
  3. a uniform integer in [1, 10^12].

With --elements they are ring elements, the ring drawn from all nine, and
each side answers factor(z) (its factors and unit), delta(2, z) and
len(divisors(z)).  Each element is a unit times split primes pi^r *
pibar^(e-r) for one or more p, an inert prime and a ramified prime power,
built with perfbench/reference.py, which imports neither tree:

  0. smooth: one to three split p below 1000, e in 1..3;
  1. wide: one prime of norm in [9*10^10, 10^11), beside a smooth part;
  2. content-heavy: an integer m of two to four primes below 100, each of
     any class, times pi^r * pibar^(e-r) for a split p below 100 with e in
     0..4, so that p, and often every prime of z, divides its content;
  3. two large split primes: p in [2^12, 2^16) with e in 1..3 and p near
     10^11 with e in 1..2, each shared between pi and pibar at random.

Prints one JSON object with the seed, the count, the number of mismatches
(answers differ, or one side raises where the other does not) and the
first few mismatching inputs, each element as [d, a, b]; exits 1 when
there is any mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from inproc_ab import load_tree

import reference as ref  # perfbench/, put on the path by inproc_ab


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


SMALL = [p for p in range(2, 300) if _is_prime(p)][:60]
NEAR = [p for p in range(10**6 - 200, 10**6 + 201) if _is_prime(p)]


def numbers(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        smooth = math.prod(rng.choices(SMALL, k=rng.randint(0, 8)))
        kind = i % 4
        if kind == 0:
            out.append(smooth)
        elif kind == 1:
            out.append(smooth * math.prod(rng.sample(NEAR, rng.randint(1, 2))))
        elif kind == 2:
            r = rng.choice((
                rng.randint(2, 10**4),
                rng.choice(NEAR) * rng.choice(SMALL[:20]),
                math.prod(rng.sample(NEAR, 2)),
            ))
            out.append(smooth * r ** rng.randint(2, 5))
        else:
            out.append(rng.randint(1, 10**12))
    return out


def outcome(lib, n: int):
    try:
        return lib.factor_rational(n).factors
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc).__name__


RINGS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


def _primes_of(d: int, kind: str, lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi) if _is_prime(p) and ref.classify(d, p) == kind]


SPLIT = {d: _primes_of(d, "split", 2, 1000) for d in RINGS}
INERT = {d: _primes_of(d, "inert", 2, 100) for d in RINGS}


def _large_split(rng, d: int, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if ref.is_prime(p) and ref.classify(d, p) == "split":
            return p


def _shared(rng, d: int, z, p: int, e: int):
    """z * pi^r * pibar^(e - r) for the primes pi, pibar above a split p."""
    pi = ref.prime_element(d, p)
    r = rng.randint(0, e)
    z = ref.mul(d, z, ref.power(d, pi, r))
    return ref.mul(d, z, ref.power(d, ref.conjugate(pi), e - r))


def elements(seed: int, count: int) -> list[tuple[int, int, int]]:
    """COUNT elements as (d, a, b), in library coordinates."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        d = rng.choice(RINGS)
        ramified = 2 if d in (-1, -2) else -d
        z = rng.choice(ref.units(d))
        kind = i % 4
        if kind in (0, 1):
            for p in rng.sample(SPLIT[d], rng.randint(1, 3)):
                z = _shared(rng, d, z, p, rng.randint(1, 3))
            if kind == 1:
                z = _shared(rng, d, z, _large_split(rng, d, 9 * 10**10, 10**11), 1)
        elif kind == 2:
            m = math.prod(rng.choices(SMALL[:25], k=rng.randint(2, 4)))
            z = ref.mul(d, z, (2 * m, 0))
            p = rng.choice([p for p in SPLIT[d] if p < 100])
            z = _shared(rng, d, z, p, rng.randint(0, 4))
        else:
            p = _large_split(rng, d, 1 << 12, 1 << 16)
            z = _shared(rng, d, z, p, rng.randint(1, 3))
            p = _large_split(rng, d, 10**11, 10**11 + 10**6)
            z = _shared(rng, d, z, p, rng.randint(1, 2))
        if kind != 2:
            q = ref.prime_element(d, rng.choice(INERT[d]))
            z = ref.mul(d, z, ref.power(d, q, rng.randint(0, 1)))
            rho = ref.prime_element(d, ramified)
            z = ref.mul(d, z, ref.power(d, rho, rng.randint(0, 2)))
        out.append((d, *ref.from_uv(d, z)))
    return out


def element_outcome(lib, d: int, a: int, b: int):
    try:
        z = lib.Ring(d).element(a, b)
        fac = lib.factor(z)
        return (
            [(pi.a, pi.b, e) for pi, e in fac.factors],
            (fac.unit.a, fac.unit.b),
            lib.delta(2, z),
            len(lib.divisors(z)),
        )
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc).__name__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--count", type=int, default=4000)
    parser.add_argument(
        "--elements", action="store_true",
        help="compare factor, delta and divisors on ring elements",
    )
    args = parser.parse_args(argv)

    base = load_tree(args.base.resolve(), "qp_base")[0]
    change = load_tree(args.change.resolve(), "qp_change")[0]
    if args.elements:
        bad = [
            list(x) for x in elements(args.seed, args.count)
            if element_outcome(base, *x) != element_outcome(change, *x)
        ]
    else:
        bad = [
            n for n in numbers(args.seed, args.count)
            if outcome(base, n) != outcome(change, n)
        ]
    print(json.dumps({
        "seed": args.seed, "count": args.count, "mismatches": len(bad), "first": bad[:5],
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
