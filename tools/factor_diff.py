#!/usr/bin/env python3
"""Compare factor_rational between two source trees on seeded numbers.

    python3 tools/factor_diff.py --base ../parent --change . --seed 23 --count 4000

Loads BASE/src/quadperfect as qp_base and CHANGE/src/quadperfect as
qp_change in this one process, as tools/inproc_ab.py does, and factors the
same numbers with both.  random.Random(SEED) draws COUNT numbers, taking
four kinds in turn:

  0. a smooth number: 0-8 draws from the first 60 primes;
  1. a smooth number times one or two primes within 200 of 10^6;
  2. a smooth number times r^e, e in 2..5, with r an integer in [2, 10^4],
     a near-10^6 prime times one of the first 20 primes, or a product of
     two near-10^6 primes;
  3. a uniform integer in [1, 10^12].

Prints one JSON object with the seed, the count, the number of mismatches
(factors differ, or one side raises where the other does not) and the
first few mismatching numbers; exits 1 when there is any mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from inproc_ab import load_tree


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--count", type=int, default=4000)
    args = parser.parse_args(argv)

    base = load_tree(args.base.resolve(), "qp_base")[0]
    change = load_tree(args.change.resolve(), "qp_change")[0]
    bad = [n for n in numbers(args.seed, args.count) if outcome(base, n) != outcome(change, n)]
    print(json.dumps({
        "seed": args.seed, "count": args.count, "mismatches": len(bad), "first": bad[:5],
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
